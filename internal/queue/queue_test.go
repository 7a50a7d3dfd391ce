package queue

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

func TestFIFOOrder(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 4)
		for i := 0; i < 4; i++ {
			if err := q.Put(context.Background(), i); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		for i := 0; i < 4; i++ {
			v, err := q.Get(context.Background())
			if err != nil || v != i {
				t.Fatalf("Get = %d,%v want %d,nil", v, err, i)
			}
		}
	})
}

func TestPutBlocksWhenFull(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 1)
		_ = q.Put(context.Background(), 1)
		var putDone atomic.Bool
		wg := simtime.NewWaitGroup(k)
		wg.Go("producer", func() {
			_ = q.Put(context.Background(), 2)
			putDone.Store(true)
		})
		_ = k.Sleep(context.Background(), time.Second)
		if putDone.Load() {
			t.Fatal("Put returned while queue was full")
		}
		if v, _ := q.Get(context.Background()); v != 1 {
			t.Fatalf("Get = %d, want 1", v)
		}
		_ = wg.Wait(context.Background())
		if !putDone.Load() {
			t.Fatal("Put did not complete after space freed")
		}
	})
}

func TestGetBlocksWhenEmptyAndWakesOnPut(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[string](k, "q", 2)
		wg := simtime.NewWaitGroup(k)
		var got atomic.Value
		wg.Go("consumer", func() {
			v, err := q.Get(context.Background())
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			got.Store(v)
		})
		_ = k.Sleep(context.Background(), 5*time.Second)
		if err := q.Put(context.Background(), "hello"); err != nil {
			t.Fatal(err)
		}
		_ = wg.Wait(context.Background())
		if got.Load() != "hello" {
			t.Fatalf("got %v", got.Load())
		}
	})
}

func TestCloseWakesAllAndDrains(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 8)
		_ = q.Put(context.Background(), 42)
		wg := simtime.NewWaitGroup(k)
		var errs atomic.Int64
		// Two consumers: one gets the item, the other gets ErrClosed.
		var gotItem atomic.Int64
		for i := 0; i < 2; i++ {
			wg.Go("consumer", func() {
				v, err := q.Get(context.Background())
				if err == ErrClosed {
					errs.Add(1)
				} else if err == nil {
					gotItem.Store(int64(v))
				}
			})
		}
		_ = k.Sleep(context.Background(), time.Second)
		q.Close()
		_ = wg.Wait(context.Background())
		if gotItem.Load() != 42 || errs.Load() != 1 {
			t.Fatalf("gotItem=%d errs=%d, want 42,1", gotItem.Load(), errs.Load())
		}
		if err := q.Put(context.Background(), 1); err != ErrClosed {
			t.Fatalf("Put after close = %v, want ErrClosed", err)
		}
		// Idempotent.
		q.Close()
	})
}

func TestTryPutTryGet(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 1)
		if ok, err := q.TryPut(1); !ok || err != nil {
			t.Fatalf("TryPut = %v,%v", ok, err)
		}
		if ok, _ := q.TryPut(2); ok {
			t.Fatal("TryPut succeeded on full queue")
		}
		if v, ok, _ := q.TryGet(); !ok || v != 1 {
			t.Fatalf("TryGet = %d,%v", v, ok)
		}
		if _, ok, _ := q.TryGet(); ok {
			t.Fatal("TryGet succeeded on empty queue")
		}
		q.Close()
		if _, _, err := q.TryGet(); err != ErrClosed {
			t.Fatalf("TryGet after close: %v", err)
		}
		if _, err := q.TryPut(3); err != ErrClosed {
			t.Fatalf("TryPut after close: %v", err)
		}
	})
}

func TestMultiProducerMultiConsumerNoLossNoDup(t *testing.T) {
	k := simtime.NewVirtual()
	const producers, consumers, perProducer = 8, 8, 200
	var mu sync.Mutex
	seen := make(map[int]int)
	k.Run(func() {
		q := New[int](k, "q", 5)
		wg := simtime.NewWaitGroup(k)
		cwg := simtime.NewWaitGroup(k)
		for p := 0; p < producers; p++ {
			p := p
			wg.Go("producer", func() {
				for i := 0; i < perProducer; i++ {
					_ = k.Sleep(context.Background(), time.Duration(1+(p+i)%3)*time.Millisecond)
					if err := q.Put(context.Background(), p*perProducer+i); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			})
		}
		for c := 0; c < consumers; c++ {
			cwg.Go("consumer", func() {
				for {
					v, err := q.Get(context.Background())
					if err == ErrClosed {
						return
					}
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					mu.Lock()
					seen[v]++
					mu.Unlock()
				}
			})
		}
		_ = wg.Wait(context.Background())
		q.Close()
		_ = cwg.Wait(context.Background())
	})
	if len(seen) != producers*perProducer {
		t.Fatalf("saw %d distinct items, want %d", len(seen), producers*perProducer)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d seen %d times", v, n)
		}
	}
}

func TestStatsOccupancy(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 10)
		// Hold 5 items for 10s, then drain and idle for 10s: avg ≈ 2.5.
		for i := 0; i < 5; i++ {
			_ = q.Put(context.Background(), i)
		}
		_ = k.Sleep(context.Background(), 10*time.Second)
		for i := 0; i < 5; i++ {
			_, _ = q.Get(context.Background())
		}
		_ = k.Sleep(context.Background(), 10*time.Second)
		s := q.Stats()
		if s.Puts != 5 || s.Gets != 5 || s.MaxLen != 5 {
			t.Fatalf("stats = %+v", s)
		}
		if s.AvgOccupancy < 2.2 || s.AvgOccupancy > 2.8 {
			t.Fatalf("AvgOccupancy = %.2f, want ≈2.5", s.AvgOccupancy)
		}
	})
}

// TestQuickFIFOPreserved property: for any sequence of puts by a single
// producer, a single consumer sees the same sequence.
func TestQuickFIFOPreserved(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) > 500 {
			vals = vals[:500]
		}
		k := simtime.NewVirtual()
		ok := true
		k.Run(func() {
			q := New[int16](k, "q", 3)
			wg := simtime.NewWaitGroup(k)
			wg.Go("producer", func() {
				for _, v := range vals {
					if err := q.Put(context.Background(), v); err != nil {
						ok = false
						return
					}
				}
				q.Close()
			})
			i := 0
			for {
				v, err := q.Get(context.Background())
				if err == ErrClosed {
					break
				}
				if i >= len(vals) || v != vals[i] {
					ok = false
					break
				}
				i++
			}
			ok = ok && i == len(vals)
			_ = wg.Wait(context.Background())
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGetZeroesVacatedSlots is the regression test for the vacated-slot
// leak: a popped pointer must not stay reachable from the ring's backing
// array, or the queue pins every element it ever carried until the slot is
// overwritten (if ever).
func TestGetZeroesVacatedSlots(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[*int](k, "q", 8)
		for i := 0; i < 5; i++ {
			v := i
			_ = q.Put(context.Background(), &v)
		}
		for i := 0; i < 5; i++ {
			if v, err := q.Get(context.Background()); err != nil || *v != i {
				t.Fatalf("Get = %v, %v", v, err)
			}
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		for i, p := range q.buf {
			if p != nil {
				t.Fatalf("ring slot %d still holds %v after pop", i, *p)
			}
		}
	})
}

// TestWaitListDropsWokenSelectors: waiter rings must likewise zero their
// slots, so a selector does not stay reachable from the queue after its
// park ended (the same leak class, for waiters instead of items).
func TestWaitListDropsWokenSelectors(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 1)
		wg := simtime.NewWaitGroup(k)
		var got atomic.Int64
		for i := 0; i < 4; i++ {
			wg.Go("consumer", func() {
				v, err := q.Get(context.Background())
				if err == nil {
					got.Add(int64(v))
				}
			})
		}
		_ = k.Sleep(context.Background(), time.Second) // all four parked
		for i := 0; i < 4; i++ {
			_ = q.Put(context.Background(), 1)
		}
		_ = wg.Wait(context.Background())
		if got.Load() != 4 {
			t.Fatalf("consumers got %d items, want 4", got.Load())
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.getWaiters.n != 0 {
			t.Fatalf("%d waiters still registered", q.getWaiters.n)
		}
		for i, e := range q.getWaiters.ring {
			if e.sel != nil {
				t.Fatalf("waiter ring slot %d still holds a selector", i)
			}
		}
	})
}

// TestBlockingOpsAllocationFree: after warm-up, blocking handoffs through
// the queue must not allocate (pooled selectors, ring-backed waiter lists).
func TestBlockingOpsAllocationFree(t *testing.T) {
	q := New[int](simtime.NewVirtual(), "q", 4)
	for i := 0; i < 64; i++ { // warm the selector pool and rings
		_, _ = q.TryPut(i)
		_, _, _ = q.TryGet()
	}
	avg := testing.AllocsPerRun(200, func() {
		_, _ = q.TryPut(1)
		_, _, _ = q.TryGet()
	})
	if avg > 0 {
		t.Fatalf("TryPut+TryGet allocates %.1f objects per op, want 0", avg)
	}
}

// TestKickRedeliversStrandedWakeup: a consumer that claims a wakeup but
// decides not to consume (e.g. a retiring worker) calls Kick so the item
// reaches a parked peer instead of being stranded.
func TestKickRedeliversStrandedWakeup(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		q := New[int](k, "q", 4)
		var got atomic.Int64
		wg := simtime.NewWaitGroup(k)
		wg.Go("peer", func() {
			if v, err := q.Get(context.Background()); err == nil {
				got.Add(int64(v))
			}
		})
		_ = k.Sleep(context.Background(), time.Second) // peer parked
		_ = q.Put(context.Background(), 7)
		// Simulate a woken consumer abandoning its claim: the item is
		// buffered, the peer may or may not have been the one woken; Kick
		// must ensure a parked consumer is (re-)woken while items remain.
		q.Kick()
		_ = wg.Wait(context.Background())
		if got.Load() != 7 {
			t.Fatalf("peer got %d, want 7", got.Load())
		}
		q.Kick() // empty queue: must be a no-op, not a spurious wake storm
	})
}
