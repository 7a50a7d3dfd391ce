package simtime

import (
	"context"
	"sync"
)

// Barrier is a kernel-aware cyclic barrier for n participants: the n-th
// arrival releases everyone and the barrier resets for the next round.
// Distributed data-parallel training uses it as the per-step gradient
// synchronization point.
type Barrier struct {
	rt        *Virtual
	n         int
	onRelease func(gen uint64)

	mu      sync.Mutex
	arrived int
	gen     uint64
	waiters []*Waiter
	broken  bool
}

// NewBarrier returns a barrier for n participants (n must be positive).
func NewBarrier(rt *Virtual, n int) *Barrier {
	if n <= 0 {
		panic("simtime: barrier size must be positive")
	}
	return &Barrier{rt: rt, n: n}
}

// NewBarrierFunc returns a barrier whose fn runs once per completed round,
// in the releasing (last-arriving) participant, after the barrier has reset
// for the next round but before any waiter wakes. Every participant is
// parked or releasing at that instant, so fn observes — and may mutate —
// shared state with no participant mid-step: the hook distributed training
// uses to apply membership changes (node crash/rejoin) at a quiescent
// point. fn receives the generation that completed. It must not call Wait
// on the same barrier.
func NewBarrierFunc(rt *Virtual, n int, fn func(gen uint64)) *Barrier {
	b := NewBarrier(rt, n)
	b.onRelease = fn
	return b
}

// Wait blocks until all n participants have arrived. It returns the round
// generation that completed. If the barrier is broken (a participant left),
// Wait returns ErrBarrierBroken immediately for all current and future
// callers.
func (b *Barrier) Wait(ctx context.Context) (uint64, error) {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return 0, ErrBarrierBroken
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		ws := b.waiters
		b.waiters = nil
		b.mu.Unlock()
		if b.onRelease != nil {
			b.onRelease(gen)
		}
		for _, w := range ws {
			w.Wake()
		}
		return gen, nil
	}
	w := b.rt.NewWaiter()
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()
	if err := w.Wait(ctx); err != nil {
		return 0, err
	}
	// Report broken only if this waiter's generation never completed
	// (release advances gen before waking). A waiter woken by a normal
	// release must return success even when a participant breaks the
	// barrier immediately afterwards — otherwise whether the last completed
	// round counts would depend on goroutine scheduling, not virtual time.
	b.mu.Lock()
	broken := b.broken && b.gen == gen
	b.mu.Unlock()
	if broken {
		return 0, ErrBarrierBroken
	}
	return gen, nil
}

// Break releases all waiters with ErrBarrierBroken; used when a
// participant exits early (end of its shard).
func (b *Barrier) Break() {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return
	}
	b.broken = true
	ws := b.waiters
	b.waiters = nil
	b.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// ErrBarrierBroken is returned by Wait after Break.
var ErrBarrierBroken = barrierBrokenError{}

type barrierBrokenError struct{}

func (barrierBrokenError) Error() string { return "simtime: barrier broken" }
