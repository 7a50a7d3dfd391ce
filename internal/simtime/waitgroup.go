package simtime

import (
	"context"
	"sync"
)

// WaitGroup is a kernel-aware counterpart of sync.WaitGroup. Tracked tasks
// must not block on sync.WaitGroup (no other task runs until the caller
// parks); they use this type instead.
type WaitGroup struct {
	rt *Virtual

	mu      sync.Mutex
	n       int
	waiters []*Waiter
}

// NewWaitGroup returns a WaitGroup bound to rt.
func NewWaitGroup(rt *Virtual) *WaitGroup {
	return &WaitGroup{rt: rt}
}

// Add adds delta to the counter. It panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n < 0 {
		wg.mu.Unlock()
		panic("simtime: negative WaitGroup counter")
	}
	var toWake []*Waiter
	if wg.n == 0 {
		toWake = wg.waiters
		wg.waiters = nil
	}
	wg.mu.Unlock()
	for _, w := range toWake {
		w.Wake()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Go spawns fn as a tracked task accounted for by the group.
func (wg *WaitGroup) Go(name string, fn func()) {
	wg.Add(1)
	wg.rt.Go(name, func() {
		defer wg.Done()
		fn()
	})
}

// Wait blocks until the counter reaches zero or ctx is done.
func (wg *WaitGroup) Wait(ctx context.Context) error {
	wg.mu.Lock()
	if wg.n == 0 {
		wg.mu.Unlock()
		return nil
	}
	w := wg.rt.NewWaiter()
	wg.waiters = append(wg.waiters, w)
	wg.mu.Unlock()
	return w.Wait(ctx)
}
