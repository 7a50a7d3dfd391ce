package simtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestSameDeadlineSleepersResumeInSetOrder: timers sharing a deadline fire
// in the order they were set, so sleepers that keep re-arming the same
// period interleave in one fixed order, round after round.
func TestSameDeadlineSleepersResumeInSetOrder(t *testing.T) {
	const tasks, rounds = 5, 20
	k := NewVirtual()
	var got []int
	k.Run(func() {
		wg := NewWaitGroup(k)
		for id := 0; id < tasks; id++ {
			wg.Go("sleeper", func() {
				for r := 0; r < rounds; r++ {
					_ = k.Sleep(context.Background(), 10*time.Millisecond)
					got = append(got, id)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
	var want []int
	for r := 0; r < rounds; r++ {
		for id := 0; id < tasks; id++ {
			want = append(want, id)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume order = %v\nwant %v", got, want)
	}
}

// TestWakesRunInWakeOrder: tasks woken at one instant run in the order
// they were woken, whatever order they parked in, and all of them run
// before virtual time advances.
func TestWakesRunInWakeOrder(t *testing.T) {
	k := NewVirtual()
	var got []string
	k.Run(func() {
		waiters := make([]*Waiter, 3)
		sels := make([]*Selector, 3)
		wg := NewWaitGroup(k)
		for i := range waiters {
			waiters[i] = k.NewWaiter()
			sels[i] = NewSelector(k)
			sels[i].Reset()
			wg.Go("waiter", func() {
				if err := waiters[i].Wait(context.Background()); err != nil {
					t.Errorf("Wait: %v", err)
				}
				got = append(got, fmt.Sprintf("w%d@%v", i, k.Now()))
			})
			wg.Go("selector", func() {
				idx, err := sels[i].Wait(context.Background(), time.Hour)
				if err != nil || idx != 7 {
					t.Errorf("selector Wait = %d, %v; want 7, nil", idx, err)
				}
				got = append(got, fmt.Sprintf("s%d@%v", i, k.Now()))
			})
		}
		_ = k.Sleep(context.Background(), time.Second)
		for _, i := range []int{2, 0, 1} {
			waiters[i].Wake()
			sels[i].TryWake(7)
		}
		got = append(got, "waker")
		_ = wg.Wait(context.Background())
	})
	want := []string{"waker", "w2@1s", "s2@1s", "w0@1s", "s0@1s", "w1@1s", "s1@1s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run order = %v\nwant %v", got, want)
	}
}

// TestSpawnedTasksRunBeforeTimeAdvances: a spawned task joins the back of
// the ready FIFO; the spawner keeps running until it parks, and the spawned
// tasks run at the spawn instant, in spawn order.
func TestSpawnedTasksRunBeforeTimeAdvances(t *testing.T) {
	k := NewVirtual()
	var got []string
	k.Run(func() {
		wg := NewWaitGroup(k)
		for i := 0; i < 3; i++ {
			wg.Go("child", func() { got = append(got, fmt.Sprintf("c%d@%v", i, k.Now())) })
		}
		got = append(got, "parent")
		_ = k.Sleep(context.Background(), time.Second)
		got = append(got, fmt.Sprintf("parent@%v", k.Now()))
		_ = wg.Wait(context.Background())
	})
	want := []string{"parent", "c0@0s", "c1@0s", "c2@0s", "parent@1s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run order = %v\nwant %v", got, want)
	}
}

// parkKinds runs park(ctx) on a task for each blocking primitive.
var parkKinds = map[string]func(k *Virtual, ctx context.Context) error{
	"Sleep": func(k *Virtual, ctx context.Context) error {
		return k.Sleep(ctx, time.Hour)
	},
	"Waiter": func(k *Virtual, ctx context.Context) error {
		return k.NewWaiter().Wait(ctx)
	},
	"Selector": func(k *Virtual, ctx context.Context) error {
		sel := NewSelector(k)
		sel.Reset()
		_, err := sel.Wait(ctx, time.Hour)
		return err
	},
}

// TestCancelParkedTaskAtCancelInstant: a cancel issued by a task reaches
// the tasks parked on that context at the cancel instant, in park order,
// and the deadlines they abandoned never move the clock.
func TestCancelParkedTaskAtCancelInstant(t *testing.T) {
	for name, park := range parkKinds {
		t.Run(name, func(t *testing.T) {
			k := NewVirtual()
			var got []string
			k.Run(func() {
				ctx, cancel := context.WithCancel(context.Background())
				wg := NewWaitGroup(k)
				for i := 0; i < 3; i++ {
					wg.Go("parked", func() {
						err := park(k, ctx)
						got = append(got, fmt.Sprintf("p%d %v @%v", i, err, k.Now()))
					})
				}
				_ = k.Sleep(context.Background(), time.Second)
				cancel()
				_ = wg.Wait(context.Background())
			})
			want := []string{
				"p0 context canceled @1s", "p1 context canceled @1s", "p2 context canceled @1s",
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parked tasks returned %v\nwant %v", got, want)
			}
			if k.Now() != time.Second {
				t.Fatalf("Now() = %v after the run, want 1s (abandoned deadlines must not advance time)", k.Now())
			}
		})
	}
}

// TestCancelledParksRefuseLateWakes: once a cancellation has been
// delivered, a late Wake or TryWake reports the wakeup undelivered, so the
// waker passes it on instead of losing it.
func TestCancelledParksRefuseLateWakes(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		ctx, cancel := context.WithCancel(context.Background())
		w := k.NewWaiter()
		sel := NewSelector(k)
		sel.Reset()
		wg := NewWaitGroup(k)
		wg.Go("waiter", func() {
			if err := w.Wait(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("Waiter.Wait = %v, want Canceled", err)
			}
		})
		wg.Go("selector", func() {
			if _, err := sel.Wait(ctx, 0); !errors.Is(err, context.Canceled) {
				t.Errorf("Selector.Wait = %v, want Canceled", err)
			}
		})
		_ = k.Sleep(context.Background(), time.Millisecond)
		cancel()
		_ = wg.Wait(context.Background())
		if w.Wake() {
			t.Error("Wake after a delivered cancel returned true")
		}
		if sel.TryWake(0) {
			t.Error("TryWake after a delivered cancel returned true")
		}
	})
}

// TestCancelFromOutsideWakesIdleKernel: with every task parked and no timer
// pending, a cancel from an untracked goroutine still reaches the parked
// task — the kernel waits for it instead of declaring a deadlock.
func TestCancelFromOutsideWakesIdleKernel(t *testing.T) {
	parks := map[string]func(k *Virtual, ctx context.Context) error{
		"Waiter": parkKinds["Waiter"],
		"Selector": func(k *Virtual, ctx context.Context) error {
			sel := NewSelector(k)
			sel.Reset()
			_, err := sel.Wait(ctx, 0) // no deadline: no timer to advance to
			return err
		},
	}
	for name, park := range parks {
		t.Run(name, func(t *testing.T) {
			k := NewVirtual()
			ctx, cancel := context.WithCancel(context.Background())
			parked := make(chan struct{})
			go func() {
				<-parked
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			var err error
			k.Run(func() {
				close(parked)
				err = park(k, ctx)
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("park = %v, want Canceled", err)
			}
		})
	}
}

// TestRunFromTaskRunsInline: Run called by a task of the same kernel runs
// its function on the calling task instead of waiting on itself.
func TestRunFromTaskRunsInline(t *testing.T) {
	k := NewVirtual()
	ran := false
	k.Run(func() {
		k.Run(func() {
			_ = k.Sleep(context.Background(), time.Second)
			ran = true
		})
	})
	if !ran || k.Now() != time.Second {
		t.Fatalf("inner Run ran=%v, Now()=%v; want true, 1s", ran, k.Now())
	}
}

// TestDrainFromTaskPanics: Drain from a task would wait for itself.
func TestDrainFromTaskPanics(t *testing.T) {
	k := NewVirtual()
	var recovered any
	k.Run(func() {
		defer func() { recovered = recover() }()
		k.Drain()
	})
	if recovered == nil {
		t.Fatal("Drain from a tracked task did not panic")
	}
}

// TestBlockingFromUntrackedGoroutinePanics: parking outside a task breaks
// the entry contract and must fail loudly, not corrupt the kernel.
func TestBlockingFromUntrackedGoroutinePanics(t *testing.T) {
	k := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("Sleep from an untracked goroutine did not panic")
		}
	}()
	_ = k.Sleep(context.Background(), time.Second)
}

// TestGoexitInTaskKeepsKernelRunning: a task that exits through
// runtime.Goexit (t.FailNow) retires cleanly and the other tasks carry on.
func TestGoexitInTaskKeepsKernelRunning(t *testing.T) {
	k := NewVirtual()
	finished := false
	k.Run(func() {
		wg := NewWaitGroup(k)
		wg.Go("quitter", func() {
			_ = k.Sleep(context.Background(), time.Millisecond)
			runtime.Goexit()
		})
		wg.Go("worker", func() {
			_ = k.Sleep(context.Background(), time.Second)
			finished = true
		})
		_ = wg.Wait(context.Background())
	})
	k.Drain()
	if !finished || k.Tasks() != 0 {
		t.Fatalf("finished=%v tasks=%d; want true, 0", finished, k.Tasks())
	}
}

// TestWithCancelReadiesAtCancelCall: cancelling a kernel-owned context
// readies the tasks parked on it at the cancel call itself, so they run
// ahead of tasks woken later in the same slice.
func TestWithCancelReadiesAtCancelCall(t *testing.T) {
	for name, park := range parkKinds {
		t.Run(name, func(t *testing.T) {
			k := NewVirtual()
			var got []string
			k.Run(func() {
				ctx, cancel := WithCancel(k, context.Background())
				w := k.NewWaiter()
				wg := NewWaitGroup(k)
				wg.Go("parked", func() {
					err := park(k, ctx)
					got = append(got, fmt.Sprintf("parked %v @%v", err, k.Now()))
				})
				wg.Go("woken", func() {
					_ = w.Wait(context.Background())
					got = append(got, fmt.Sprintf("woken @%v", k.Now()))
				})
				_ = k.Sleep(context.Background(), time.Second)
				cancel()
				w.Wake()
				_ = wg.Wait(context.Background())
			})
			want := []string{"parked context canceled @1s", "woken @1s"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run order = %v\nwant %v", got, want)
			}
		})
	}
}
