package simtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the event-driven wait fabric: a Selector parks a task
// until one of several wake sources fires, replacing sleep-poll loops in the
// data path. The first source to fire in virtual time claims the selector,
// which makes wake ordering deterministic; readiness at arm time is checked
// in source order, so callers encode priorities (fast queue before slow
// queue) by argument position.

// Expired is returned by Selector.Wait/Select when the wait ended because
// its deadline expired rather than a source firing.
const Expired = -1

// Source is a wake source a Selector can be armed on. Queues, gates, and
// other blocking structures implement it.
//
// Arm registers s for a single wakeup with the given result index. If the
// source is already ready, implementations call s.TryWake(idx) instead of
// registering and return true so the caller stops arming further sources.
// Disarm removes a registration; it must be a no-op when s is not
// registered (already woken and popped, or never added).
type Source interface {
	Arm(s *Selector, idx int) bool
	Disarm(s *Selector)
}

// Selector is a reusable multi-source wait primitive: the kernel-aware
// analogue of a select statement over wake sources. One task owns a
// Selector; each cycle it Resets, arms the selector on its sources, and
// parks in Wait. The first TryWake claims the cycle — later TryWake calls
// return false so the caller passes the wakeup to another waiter instead of
// losing it. A positive deadline parks the task on a kernel timer, so
// timeouts are deterministic virtual-time events.
type Selector struct {
	k *Virtual

	// Claims (TryWake, deadline, cancellation) and Wait change state under
	// k.mu, so a claim is atomic with readying the owner; Reset, run by the
	// owner between cycles, is a plain store.
	state atomic.Int32

	// Guarded by k.mu: the delivered index, the parked owner task, and the
	// armed deadline.
	idx   int
	owner *task
	t     *timer
}

const (
	selIdle int32 = iota
	selArmed
	selWoken
	selExpired
)

// NewSelector returns a selector bound to k.
func NewSelector(k *Virtual) *Selector {
	return &Selector{k: k}
}

// Reset begins a new wait cycle, discarding a wake delivered since the last
// Wait returned (a waker may claim the selector while its owner is between
// cycles — e.g. a device rate change right as the entry is inserted; the
// owner re-checks its condition before waiting, so the wake's information is
// not lost). Callers that publish the selector to wakers through their own
// lock (as Device does) must Reset under that lock so wakes are serialized
// against the cycle boundary.
func (s *Selector) Reset() {
	s.state.Store(selIdle)
}

// TryWake claims the selector's current cycle and delivers idx as the wait
// result. It reports whether the wakeup was delivered: false means another
// source (or a timeout/cancellation) already claimed the cycle, so the
// caller should wake someone else instead.
func (s *Selector) TryWake(idx int) bool {
	k := s.k
	k.mu.Lock()
	defer k.mu.Unlock()
	if st := s.state.Load(); st != selIdle && st != selArmed {
		return false
	}
	s.state.Store(selWoken)
	s.idx = idx
	if c := s.owner; c != nil {
		if s.t != nil {
			s.t.dead = true
			s.t = nil
		}
		s.owner, c.sel = nil, nil
		k.readyLocked(c)
	}
	return true
}

// Wait parks the calling task until TryWake, the deadline (if positive), or
// ctx cancellation. It returns the index passed to TryWake, or Expired
// when the deadline expired. The caller must have Reset the selector for
// this cycle; sources armed for the cycle must be disarmed by the caller
// afterwards (Select does both).
func (s *Selector) Wait(ctx context.Context, deadline time.Duration) (int, error) {
	k := s.k
	k.mu.Lock()
	switch s.state.Load() {
	case selWoken:
		idx := s.idx
		k.mu.Unlock()
		return idx, nil
	case selIdle:
	default:
		k.mu.Unlock()
		return 0, fmt.Errorf("simtime: Selector.Wait without Reset")
	}
	done := ctx.Done()
	if isDone(done) {
		s.state.Store(selExpired)
		k.mu.Unlock()
		return 0, ctx.Err()
	}
	c := k.currentLocked()
	s.state.Store(selArmed)
	s.owner, c.sel = c, s
	if deadline > 0 {
		t := getTimer()
		t.sel = s
		k.scheduleLocked(t, k.now.Load()+deadline)
		s.t = t
	}
	if err := k.parkLocked(c, ctx, done); err != nil {
		return 0, err
	}
	// The waker set idx under k.mu before readying this task; the driver's
	// handoff orders that write before this read.
	return s.idx, nil
}

// Select arms the selector on each source in order, parks until one fires
// (or the deadline, if positive, expires, or ctx is cancelled), then
// disarms. It returns the index of the source that fired, or Expired.
// Readiness is checked in argument order at arm time, so earlier sources
// take priority when several are ready.
func (s *Selector) Select(ctx context.Context, deadline time.Duration, sources ...Source) (int, error) {
	s.Reset()
	armed := len(sources)
	for i, src := range sources {
		if src.Arm(s, i) {
			armed = i + 1
			break
		}
	}
	idx, err := s.Wait(ctx, deadline)
	for _, src := range sources[:armed] {
		src.Disarm(s)
	}
	return idx, err
}

// Gate is a broadcast wake source for condition changes that are not queue
// operations (accounting flips, shutdown). Pulse wakes every armed selector.
// It is level-correct across the check-then-arm race: each Pulse advances a
// version, and Arm fires immediately when a pulse happened since the
// selector last armed — so "check condition, arm gate, park" never misses a
// pulse delivered between the check and the arm.
type Gate struct {
	mu      sync.Mutex
	version uint64
	seen    map[*Selector]uint64
	subs    []gateSub
}

type gateSub struct {
	sel *Selector
	idx int
}

// NewGate returns an empty gate.
func NewGate() *Gate {
	return &Gate{seen: make(map[*Selector]uint64)}
}

// gateSeenLimit bounds the per-selector pulse memory: beyond it, Pulse
// drops the whole map rather than letting the selectors of finished tasks
// accumulate forever. A
// dropped entry costs its selector at most one spurious wake at its next
// Arm — consumers re-check their condition, so that is safe.
const gateSeenLimit = 1024

// Pulse wakes every armed selector and advances the gate version.
func (g *Gate) Pulse() {
	g.mu.Lock()
	g.version++
	subs := g.subs
	g.subs = nil
	if len(g.seen) > gateSeenLimit {
		clear(g.seen)
	}
	for _, e := range subs {
		g.seen[e.sel] = g.version
	}
	g.mu.Unlock()
	for _, e := range subs {
		e.sel.TryWake(e.idx)
	}
}

// Arm implements Source.
func (g *Gate) Arm(s *Selector, idx int) bool {
	g.mu.Lock()
	if g.seen[s] != g.version {
		g.seen[s] = g.version
		g.mu.Unlock()
		s.TryWake(idx)
		return true
	}
	g.subs = append(g.subs, gateSub{sel: s, idx: idx})
	g.mu.Unlock()
	return false
}

// Disarm implements Source.
func (g *Gate) Disarm(s *Selector) {
	g.mu.Lock()
	for i, e := range g.subs {
		if e.sel == s {
			g.subs = append(g.subs[:i], g.subs[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
}

var _ Source = (*Gate)(nil)
