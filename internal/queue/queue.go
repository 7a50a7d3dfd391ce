// Package queue provides a bounded, blocking, multi-producer multi-consumer
// FIFO queue built on the simtime runtime. It mirrors the semantics of
// torch.multiprocessing.Queue that MinatoLoader's paper implementation uses
// (§4.4): atomic Put under contention, blocking Get, FIFO ordering.
//
// Close wakes every blocked producer and consumer deterministically, which
// is the primary shutdown mechanism under the virtual-time runtime.
//
// The implementation is allocation-free in steady state: items live in a
// power-of-two ring buffer sized at construction, parked producers and
// consumers are recorded in ring-backed waiter lists (no append-and-shift
// slice churn), and blocking waits draw reusable Selectors from a pool
// instead of allocating a one-shot Waiter per park. Popped ring slots are
// zeroed so the queue never keeps a vacated element reachable. Len and
// Closed read atomics, so emptiness checks never touch the hot lock.
package queue

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
)

// ErrClosed is returned by Put after Close, and by Get after Close once the
// buffer has drained.
var ErrClosed = errors.New("queue: closed")

// Queue is a bounded blocking FIFO.
type Queue[T any] struct {
	rt   *simtime.Virtual
	name string
	cap  int

	mu         sync.Mutex
	buf        []T // power-of-two ring; len(buf) >= cap
	mask       int
	head       int // index of the oldest buffered item
	getWaiters waitList
	putWaiters waitList

	// size and closed are mutated under mu but read lock-free by Len and
	// Closed — the emptiness checks on the batch-constructor hot path never
	// contend on the queue lock.
	size   atomic.Int64
	closed atomic.Bool

	// occupancy statistics, guarded by mu.
	occIntegral float64 // ∫ len dt, in item-seconds
	lastOcc     time.Duration

	// selPool recycles Selectors across blocking Put/Get parks. Recycling is
	// safe because every TryWake on a queue waiter entry is delivered while
	// holding mu: once an entry has been popped (or removed by its owner)
	// under the lock, no stale reference to its selector remains.
	selPool sync.Pool

	// counters, readable off the lock
	puts, gets atomic.Int64
	maxLen     atomic.Int64
	created    time.Duration
}

// New returns a queue with the given capacity. Capacity must be positive.
// The ring buffer is allocated eagerly (rounded up to a power of two), so
// the queue performs no item-storage allocation after construction.
func New[T any](rt *simtime.Virtual, name string, capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	ring := 1
	for ring < capacity {
		ring <<= 1
	}
	now := rt.Now()
	q := &Queue[T]{
		rt: rt, name: name, cap: capacity,
		buf: make([]T, ring), mask: ring - 1,
		created: now, lastOcc: now,
	}
	q.selPool.New = func() any { return simtime.NewSelector(rt) }
	return q
}

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the current number of buffered items without locking.
func (q *Queue[T]) Len() int { return int(q.size.Load()) }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }

// account folds the elapsed occupancy (len·dt) into the integral. Callers
// hold mu and pass the length that was current over the elapsed window
// (i.e. before their mutation).
func (q *Queue[T]) account(lenBefore int) {
	now := q.rt.Now()
	last := q.lastOcc
	q.lastOcc = now
	if now > last && lenBefore > 0 {
		q.occIntegral += float64(lenBefore) * (now - last).Seconds()
	}
}

// pushLocked appends v to the ring. The caller holds mu and has verified
// space is available.
func (q *Queue[T]) pushLocked(v T) {
	n := int(q.size.Load())
	q.account(n)
	q.buf[(q.head+n)&q.mask] = v
	q.size.Store(int64(n + 1))
	if int64(n+1) > q.maxLen.Load() {
		q.maxLen.Store(int64(n + 1))
	}
	q.puts.Add(1)
	q.getWaiters.wakeOne()
}

// popLocked removes and returns the oldest item. The caller holds mu and has
// verified the queue is non-empty. The vacated slot is zeroed so the ring
// never keeps a popped element reachable.
func (q *Queue[T]) popLocked() T {
	n := int(q.size.Load())
	q.account(n)
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & q.mask
	q.size.Store(int64(n - 1))
	q.gets.Add(1)
	q.putWaiters.wakeOne()
	return v
}

// Put appends v, blocking while the queue is full. It returns ErrClosed if
// the queue is or becomes closed, or ctx.Err() on cancellation.
func (q *Queue[T]) Put(ctx context.Context, v T) error {
	q.mu.Lock()
	for {
		if q.closed.Load() {
			q.mu.Unlock()
			return ErrClosed
		}
		if int(q.size.Load()) < q.cap {
			q.pushLocked(v)
			q.mu.Unlock()
			return nil
		}
		if err := q.parkLocked(ctx, &q.putWaiters); err != nil {
			// Guard against a lost wakeup: someone may have woken us to fill
			// the free slot we are abandoning.
			if int(q.size.Load()) < q.cap {
				q.putWaiters.wakeOne()
			}
			q.mu.Unlock()
			return err
		}
	}
}

// TryPut appends v without blocking. It reports whether the item was
// accepted; it returns ErrClosed after Close.
func (q *Queue[T]) TryPut(v T) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		return false, ErrClosed
	}
	if int(q.size.Load()) >= q.cap {
		return false, nil
	}
	q.pushLocked(v)
	return true, nil
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. After Close, Get drains remaining items and then returns ErrClosed.
func (q *Queue[T]) Get(ctx context.Context) (T, error) {
	var zero T
	q.mu.Lock()
	for {
		if q.size.Load() > 0 {
			v := q.popLocked()
			q.mu.Unlock()
			return v, nil
		}
		if q.closed.Load() {
			q.mu.Unlock()
			return zero, ErrClosed
		}
		if err := q.parkLocked(ctx, &q.getWaiters); err != nil {
			if q.size.Load() > 0 {
				q.getWaiters.wakeOne()
			}
			q.mu.Unlock()
			return zero, err
		}
	}
}

// TryGet removes and returns the oldest item without blocking. ok is false
// when the queue is empty. It returns ErrClosed once closed and drained.
func (q *Queue[T]) TryGet() (v T, ok bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size.Load() > 0 {
		return q.popLocked(), true, nil
	}
	if q.closed.Load() {
		var zero T
		return zero, false, ErrClosed
	}
	var zero T
	return zero, false, nil
}

// parkLocked parks the caller on list with a pooled selector until a waker
// (or Close) delivers a wakeup, re-acquiring mu before returning. A nil
// return means the caller was woken and must re-check its condition; a
// non-nil return is the context error, with the caller's entry already
// removed from the list.
func (q *Queue[T]) parkLocked(ctx context.Context, list *waitList) error {
	sel := q.selPool.Get().(*simtime.Selector)
	// Reset under mu: every queue-side TryWake also happens under mu, so the
	// cycle boundary is serialized against wakers and the pooled selector
	// can never receive a stale wake from a previous owner.
	sel.Reset()
	list.push(waiterEntry{sel: sel, idx: 0})
	q.mu.Unlock()
	_, err := sel.Wait(ctx, 0)
	q.mu.Lock()
	if err != nil {
		// Cancelled: drop our entry if a waker has not already popped it. In
		// either case no reference can be in flight — wakes are delivered
		// under mu, which we hold — so the selector is safe to recycle.
		list.remove(sel)
	}
	q.selPool.Put(sel)
	return err
}

// Kick re-delivers a consumer wakeup when the queue is non-empty. A waiter
// that claimed a wakeup but decided not to consume (e.g. a worker retiring
// right after being woken) calls it so the item that woke it reaches a
// parked peer instead of being stranded. A spurious kick is safe: the
// woken consumer re-checks and parks again.
func (q *Queue[T]) Kick() {
	q.mu.Lock()
	if q.size.Load() > 0 {
		q.getWaiters.wakeOne()
	}
	q.mu.Unlock()
}

// Close marks the queue closed and wakes every blocked producer and
// consumer. Items already buffered remain readable. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.account(int(q.size.Load()))
	q.closed.Store(true)
	// Wake under the lock: pooled selectors must never see a wake after
	// their entry has been removed from the lists.
	q.getWaiters.wakeAll()
	q.putWaiters.wakeAll()
	q.mu.Unlock()
}

// waiterEntry is one parked consumer or producer: a Selector subscription
// (a pooled selector for blocking Get/Put, or an external Arm registration)
// with its result index.
type waiterEntry struct {
	sel *simtime.Selector
	idx int
}

// waitList is a ring-backed FIFO of waiter entries. Pushes reuse the ring
// in place (growing only by doubling when full), and popped or removed
// slots are zeroed so no Selector stays reachable after its wait ends.
type waitList struct {
	ring []waiterEntry
	head int
	n    int
}

func (l *waitList) push(e waiterEntry) {
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = e
	l.n++
}

func (l *waitList) grow() {
	size := len(l.ring) * 2
	if size == 0 {
		size = 8
	}
	next := make([]waiterEntry, size)
	for i := 0; i < l.n; i++ {
		next[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = next, 0
}

func (l *waitList) pop() (waiterEntry, bool) {
	if l.n == 0 {
		return waiterEntry{}, false
	}
	e := l.ring[l.head]
	l.ring[l.head] = waiterEntry{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return e, true
}

// wakeOne pops entries until one accepts the wakeup. A refused wake (a
// Selector already claimed by another source) passes to the next waiter so
// the wakeup is never dropped.
func (l *waitList) wakeOne() {
	for {
		e, ok := l.pop()
		if !ok {
			return
		}
		if e.sel.TryWake(e.idx) {
			return
		}
	}
}

// wakeAll delivers a wakeup attempt to every parked entry (shutdown).
func (l *waitList) wakeAll() {
	for {
		e, ok := l.pop()
		if !ok {
			return
		}
		e.sel.TryWake(e.idx)
	}
}

// remove deletes the entry for sel, compacting the ring. It is a no-op when
// sel is not present (already popped by a waker).
func (l *waitList) remove(sel *simtime.Selector) {
	mask := len(l.ring) - 1
	for i := 0; i < l.n; i++ {
		if l.ring[(l.head+i)&mask].sel != sel {
			continue
		}
		for j := i; j < l.n-1; j++ {
			l.ring[(l.head+j)&mask] = l.ring[(l.head+j+1)&mask]
		}
		l.ring[(l.head+l.n-1)&mask] = waiterEntry{}
		l.n--
		return
	}
}

// Arm implements simtime.Source: it registers sel for a wakeup when the
// queue becomes readable (an item arrives or the queue closes). If the queue
// is already readable, sel is woken immediately and not registered.
func (q *Queue[T]) Arm(sel *simtime.Selector, idx int) bool {
	q.mu.Lock()
	if q.size.Load() > 0 || q.closed.Load() {
		q.mu.Unlock()
		sel.TryWake(idx)
		return true
	}
	q.getWaiters.push(waiterEntry{sel: sel, idx: idx})
	q.mu.Unlock()
	return false
}

// Disarm implements simtime.Source.
func (q *Queue[T]) Disarm(sel *simtime.Selector) {
	q.mu.Lock()
	q.getWaiters.remove(sel)
	q.mu.Unlock()
}

var _ simtime.Source = (*Queue[int])(nil)

// Stats is a snapshot of queue activity.
type Stats struct {
	Name         string
	Puts, Gets   int64
	Len, Cap     int
	MaxLen       int
	AvgOccupancy float64 // time-weighted mean length
}

// Stats returns a snapshot of queue counters. It takes the queue lock
// briefly to fold the tail window into the occupancy integral and read a
// consistent snapshot; the lock-free diagnostic reads are Len and Closed.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	q.account(int(q.size.Load()))
	elapsed := (q.lastOcc - q.created).Seconds()
	integral := q.occIntegral
	q.mu.Unlock()
	avg := 0.0
	if elapsed > 0 {
		avg = integral / elapsed
	}
	return Stats{
		Name: q.name, Puts: q.puts.Load(), Gets: q.gets.Load(),
		Len: int(q.size.Load()), Cap: q.cap,
		MaxLen: int(q.maxLen.Load()), AvgOccupancy: avg,
	}
}
