// Package simtime provides the clock and scheduler that every component of
// this repository blocks through: sleeping, queue waits, and device
// occupancy all go through the Virtual kernel.
//
// Virtual is a deterministic discrete-event kernel: virtual time advances
// only when every tracked task is parked, so a simulated multi-thousand-
// second training run executes in milliseconds of wall time with exact
// timing (no OS timer-resolution skew).
//
// Virtual runs exactly one tracked task at a time. Each task is a coroutine;
// a single driver resumes ready tasks in FIFO order and, when none is ready,
// fires the next batch of timers. Parking (Sleep, Waiter.Wait,
// Selector.Wait/Select, and the WaitGroup and Barrier built on them) hands
// control straight back to the driver, and a wake appends the parked task to
// the ready FIFO. Same-instant order is therefore a pure function of the
// program: timers sharing a deadline fire in the order they were set, and
// woken tasks run in the order they were woken.
//
// The entry contract: every blocking call must come from a tracked task
// (one started by Go, GoDaemon, or Run), and it must block through the
// primitives above. Blocking on ordinary Go primitives
// (unbuffered channels, sync.WaitGroup, ...) from a tracked task stalls the
// kernel, because no other task runs until the current one parks. Untracked
// goroutines may spawn tasks (Go, Run), wake parked tasks (Waiter.Wake,
// Selector.TryWake, Gate.Pulse), and wait for the kernel to empty (Drain);
// they must not Sleep or Wait on the kernel. Run called from a tracked task
// runs its function inline.
//
// Context cancellation is best-effort. A cancel issued by a tracked task is
// delivered to the tasks parked on that context once the current instant's
// ready tasks have run, before time advances, so it is deterministic. A cancel from outside the kernel (a wall-clock timeout, a
// user's goroutine) lands at whatever instant the kernel has reached when it
// arrives. Simulation code therefore coordinates shutdown through
// kernel-visible events — queue Close, stop flags checked at operation
// boundaries, and finite compute sleeps that always drain on their own.
package simtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Waiter is a one-shot parking primitive. A task calls Wait to park; another
// task calls Wake to unpark it. A Waiter may be woken before Wait is called,
// in which case Wait returns immediately. Waiters are not reusable.
type Waiter struct {
	// state and owner are guarded by k.mu.
	k     *Virtual
	owner *task // the parked task
	state waitState
}

type waitState int

const (
	waitIdle waitState = iota
	waitWaiting
	waitWoken
	waitCancelled
)

// Wake unparks the waiter. It reports whether the wakeup was delivered:
// false means the waiter had already been cancelled (its Wait returned with
// a context error), so the caller should wake someone else instead.
func (w *Waiter) Wake() bool {
	k := w.k
	k.mu.Lock()
	defer k.mu.Unlock()
	switch w.state {
	case waitIdle:
		w.state = waitWoken
	case waitWaiting:
		w.state = waitWoken
		c := w.owner
		w.owner, c.waiter = nil, nil
		k.readyLocked(c)
	case waitCancelled:
		return false
	}
	return true
}

// Wait parks the calling task until Wake or ctx cancellation.
func (w *Waiter) Wait(ctx context.Context) error {
	k := w.k
	k.mu.Lock()
	switch w.state {
	case waitWoken:
		k.mu.Unlock()
		return nil
	case waitIdle:
	default:
		k.mu.Unlock()
		return fmt.Errorf("simtime: Wait called twice on the same Waiter")
	}
	done := ctx.Done()
	if isDone(done) {
		w.state = waitCancelled
		k.mu.Unlock()
		return ctx.Err()
	}
	c := k.currentLocked()
	w.state = waitWaiting
	w.owner, c.waiter = c, w
	return k.parkLocked(c, ctx, done)
}

// isDone reports whether a context's Done channel is closed, without
// blocking. A nil channel (a context that can never be cancelled) is not.
func isDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Virtual is a deterministic discrete-event runtime. Tasks run one at a
// time; time advances to the earliest pending timer whenever no task is
// ready. See kernel.go for the driver.
type Virtual struct {
	mu sync.Mutex
	// now is advanced by the driver, or by a task parking with nothing else
	// ready, never while another task runs; Now reads it lock-free. A
	// running task can never observe a concurrent advance, so the atomic
	// read returns exactly what a mutex-guarded read would, without the
	// lock traffic (Now is called on every queue, device, and profiler
	// operation).
	now   atomicDuration
	tasks int
	// daemons counts live daemon tasks (see GoDaemon): tasks that may park
	// indefinitely waiting for external requests. A kernel whose parked
	// tasks are all daemons is idle, not deadlocked.
	daemons int

	// ready is the FIFO of tasks waiting to be resumed, linked through
	// task.rnext.
	readyHead, readyTail *task
	// cur is the task running now; nil while the driver holds control.
	cur *task
	// driving is set while a driver goroutine owns the loop; extWait while
	// that driver blocks on ext for a wake from outside the kernel.
	driving bool
	extWait bool
	ext     chan struct{}
	stall   *time.Timer // the driver's deadlock timer, reused

	timers timerHeap
	// byDeadline maps a pending deadline to its heap node, so timers sharing
	// a deadline chain off a single node: scheduling them is O(1) and firing
	// them needs one heap pop for the whole batch.
	byDeadline map[time.Duration]*timer

	// watches holds one cancellation watch per context Done channel that a
	// task has parked on; scan lists the foreign watches that have parked
	// tasks; owned holds the Done channels of contexts made by WithCancel.
	watches map[<-chan struct{}]*ctxWatch
	scan    []*ctxWatch
	owned   map[<-chan struct{}]struct{}

	idle chan struct{} // closed when tasks hits zero; replaced on spawn
}

// NewVirtual returns a virtual runtime starting at time zero.
func NewVirtual() *Virtual {
	return &Virtual{
		idle:       closedChan(),
		ext:        make(chan struct{}, 1),
		byDeadline: make(map[time.Duration]*timer),
		watches:    make(map[<-chan struct{}]*ctxWatch),
		owned:      make(map[<-chan struct{}]struct{}),
	}
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// Now returns the current virtual time, lock-free.
func (k *Virtual) Now() time.Duration {
	return k.now.Load()
}

// Go spawns fn as a tracked task. It joins the back of the ready FIFO; a
// task spawning another keeps running until it parks.
func (k *Virtual) Go(name string, fn func()) {
	k.spawn(fn, false)
}

// GoDaemon spawns fn as a tracked daemon task. Daemons schedule exactly
// like ordinary tasks, but a kernel left with nothing runnable, no pending
// timers, and only daemons parked is considered idle rather than
// deadlocked — the shape of a network server waiting on its inbox after
// every client has exited. Daemon tasks still count toward Drain; whoever
// spawns one owns shutting it down (e.g. by closing the queue it parks on).
func (k *Virtual) GoDaemon(name string, fn func()) {
	k.spawn(fn, true)
}

// Run executes fn as a tracked task and blocks the (untracked) caller until
// it returns. It is the entry point for driving a simulation from a test or
// a main function. Called from a tracked task, Run simply calls fn: the
// caller already is a task of this kernel.
func (k *Virtual) Run(fn func()) {
	if k.onTask() {
		fn()
		return
	}
	done := make(chan struct{})
	k.Go("run", func() {
		defer close(done)
		fn()
	})
	<-done
}

// Drain blocks the (untracked) caller until every tracked task has exited.
// Callers typically cancel the session context first so parked tasks wake
// and unwind. Drain panics when called from a tracked task, which would
// wait for itself.
func (k *Virtual) Drain() {
	if k.onTask() {
		panic("simtime: Drain called from a tracked task")
	}
	k.mu.Lock()
	idle := k.idle
	k.mu.Unlock()
	<-idle
}

// Tasks returns the number of live tracked tasks.
func (k *Virtual) Tasks() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.tasks
}

// Sleep pauses the calling task for d of virtual time.
func (k *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	done := ctx.Done()
	if isDone(done) {
		return ctx.Err()
	}
	if d <= 0 {
		return nil
	}
	k.mu.Lock()
	c := k.currentLocked()
	t := getTimer()
	t.owner = c
	c.sleep = t
	k.scheduleLocked(t, k.now.Load()+d)
	return k.parkLocked(c, ctx, done)
}

// NewWaiter returns a kernel-aware parking primitive.
func (k *Virtual) NewWaiter() *Waiter {
	return &Waiter{k: k}
}

// atomicDuration is a time.Duration with atomic load/store.
type atomicDuration struct{ v atomic.Int64 }

func (d *atomicDuration) Load() time.Duration   { return time.Duration(d.v.Load()) }
func (d *atomicDuration) Store(t time.Duration) { d.v.Store(int64(t)) }
