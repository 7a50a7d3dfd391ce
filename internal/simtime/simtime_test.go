package simtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		if err := k.Sleep(context.Background(), 5*time.Second); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		if got := k.Now(); got != 5*time.Second {
			t.Errorf("Now() = %v, want 5s", got)
		}
	})
}

func TestVirtualSleepIsInstantInWallTime(t *testing.T) {
	k := NewVirtual()
	start := time.Now()
	k.Run(func() {
		for i := 0; i < 1000; i++ {
			_ = k.Sleep(context.Background(), time.Hour)
		}
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("1000 virtual hours took %v of wall time", elapsed)
	}
	if got := k.Now(); got != 1000*time.Hour {
		t.Fatalf("Now() = %v, want 1000h", got)
	}
}

func TestVirtualConcurrentSleepersOrdering(t *testing.T) {
	k := NewVirtual()
	var mu sync.Mutex
	var order []int
	k.Run(func() {
		wg := NewWaitGroup(k)
		for _, d := range []struct {
			id int
			d  time.Duration
		}{{3, 30 * time.Millisecond}, {1, 10 * time.Millisecond}, {2, 20 * time.Millisecond}} {
			d := d
			wg.Go("sleeper", func() {
				_ = k.Sleep(context.Background(), d.d)
				mu.Lock()
				order = append(order, d.id)
				mu.Unlock()
			})
		}
		if err := wg.Wait(context.Background()); err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order = %v, want [1 2 3]", order)
	}
}

func TestVirtualSleepCancellationDoesNotHang(t *testing.T) {
	// Under the Virtual runtime, context cancellation is best-effort: the
	// sleep returns promptly in wall time, either via the cancellation path
	// or by the kernel advancing virtual time to the timer deadline (no
	// other task was runnable). Deterministic teardown in simulation code
	// uses queue Close and stop flags instead of contexts. This test pins
	// the "returns promptly, no wall-time hang" property.
	k := NewVirtual()
	k.Run(func() {
		ctx, cancel := context.WithCancel(context.Background())
		wg := NewWaitGroup(k)
		wg.Go("sleeper", func() {
			_ = k.Sleep(ctx, time.Hour)
		})
		_ = k.Sleep(context.Background(), time.Second)
		cancel()
		if err := wg.Wait(context.Background()); err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
}

func TestVirtualSleepPreCancelledContext(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := k.Sleep(ctx, time.Hour); err != context.Canceled {
			t.Errorf("Sleep = %v, want Canceled", err)
		}
		if got := k.Now(); got != 0 {
			t.Errorf("Now() = %v, want 0", got)
		}
	})
}

func TestWaiterWakeBeforeWait(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		w := k.NewWaiter()
		if !w.Wake() {
			t.Error("Wake returned false")
		}
		if err := w.Wait(context.Background()); err != nil {
			t.Errorf("Wait after Wake: %v", err)
		}
	})
}

func TestWaiterWakeWhileParked(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		w := k.NewWaiter()
		wg := NewWaitGroup(k)
		var woke atomic.Bool
		wg.Go("waiter", func() {
			if err := w.Wait(context.Background()); err == nil {
				woke.Store(true)
			}
		})
		_ = k.Sleep(context.Background(), time.Second)
		if !w.Wake() {
			t.Error("Wake returned false for parked waiter")
		}
		_ = wg.Wait(context.Background())
		if !woke.Load() {
			t.Error("parked waiter did not wake")
		}
	})
}

func TestWaiterCancelledWakeReturnsFalse(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		ctx, cancel := context.WithCancel(context.Background())
		w := k.NewWaiter()
		wg := NewWaitGroup(k)
		wg.Go("waiter", func() {
			if err := w.Wait(ctx); err != context.Canceled {
				t.Errorf("Wait = %v, want Canceled", err)
			}
		})
		_ = k.Sleep(context.Background(), time.Second)
		cancel()
		_ = wg.Wait(context.Background())
		if w.Wake() {
			t.Error("Wake on cancelled waiter returned true")
		}
	})
}

func TestWaitGroupWaitsForAll(t *testing.T) {
	k := NewVirtual()
	k.Run(func() {
		wg := NewWaitGroup(k)
		var n atomic.Int64
		for i := 1; i <= 10; i++ {
			i := i
			wg.Go("w", func() {
				_ = k.Sleep(context.Background(), time.Duration(i)*time.Second)
				n.Add(1)
			})
		}
		if err := wg.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if n.Load() != 10 {
			t.Errorf("completed = %d, want 10", n.Load())
		}
		if got := k.Now(); got != 10*time.Second {
			t.Errorf("Now() = %v, want 10s", got)
		}
	})
}

func TestVirtualManyTasksThroughput(t *testing.T) {
	k := NewVirtual()
	var total atomic.Int64
	k.Run(func() {
		wg := NewWaitGroup(k)
		for i := 0; i < 50; i++ {
			wg.Go("worker", func() {
				for j := 0; j < 100; j++ {
					_ = k.Sleep(context.Background(), time.Millisecond)
					total.Add(1)
				}
			})
		}
		_ = wg.Wait(context.Background())
	})
	if total.Load() != 5000 {
		t.Fatalf("total = %d, want 5000", total.Load())
	}
	if got := k.Now(); got != 100*time.Millisecond {
		t.Fatalf("Now() = %v, want 100ms (tasks sleep in parallel)", got)
	}
}
