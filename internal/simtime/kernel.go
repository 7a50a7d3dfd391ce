package simtime

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"time"
)

// This file is the Virtual kernel's scheduler. Every tracked task is a
// coroutine (iter.Pull): resuming it hands the driver's thread straight to
// the task's goroutine, and parking hands it straight back, with no wake-up
// through the Go scheduler. One driver goroutine at a time owns the loop:
//
//  1. resume the head of the ready FIFO until it parks or finishes;
//  2. when nothing is ready, deliver pending context cancellations, then
//     advance the clock to the earliest deadline and ready its tasks;
//  3. with nothing ready and no timers, exit when the kernel is empty or
//     only daemons are parked, and otherwise wait for a wake from outside
//     the kernel, declaring a deadlock if none arrives.
//
// A wake or spawn from outside the kernel starts a driver when none is
// running, so the driver never has to poll.

const (
	// stallTimeout bounds how long the driver waits for a wake from outside
	// the kernel (an untracked goroutine's Wake, a wall-clock context
	// cancel) while non-daemon tasks are parked and no timer is pending,
	// before it declares a deadlock.
	stallTimeout = 10 * time.Second
	// maxIdleTasks bounds the finished coroutines kept for reuse.
	maxIdleTasks = 4096
)

// idleTasks holds finished tasks whose coroutines wait for the next spawn
// on any kernel, so a simulated run (one kernel each) reuses the
// coroutines of the runs before it. Like the Go runtime's list of exited
// goroutines, it holds at most what the process once ran at a time. It is
// not a sync.Pool: a coroutine dropped by the garbage collector would leak
// its parked goroutine.
var idleTasks struct {
	mu   sync.Mutex
	list []*task
}

// task is one tracked task: a coroutine that runs fn, parks by yielding
// false to the driver, and yields true when fn returns. A finished task's
// coroutine waits in idleTasks for the next spawn.
type task struct {
	k      *Virtual
	next   func() (bool, bool)
	stop   func()
	yield  func(bool) bool
	gid    uint64 // the coroutine's goroutine id, set under k.mu when it starts
	fn     func()
	daemon bool

	rnext *task // ready FIFO link

	// What the parked task waits on (a deadline alone is a Sleep; a
	// deadline with sel is a Selector's expiry), and the cancellation watch
	// it is registered with. tidx is the task's slot in the timer heap, or
	// -1 when it has no pending deadline.
	tidx         int
	waiter       *Waiter
	sel          *Selector
	watch        *ctxWatch
	wprev, wnext *task
	// err is the park's result: nil, or the context error of a
	// cancellation wake.
	err error
}

func newTask(k *Virtual) *task {
	c := &task{k: k, tidx: -1}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine body: run the assigned fn, report completion, and
// wait for the next assignment (or for stop), which may come from another
// kernel.
func (c *task) loop(yield func(bool) bool) {
	c.yield = yield
	id := goid()
	c.k.mu.Lock()
	c.gid = id
	c.k.mu.Unlock()
	for {
		fn := c.fn
		c.fn = nil
		fn()
		if !yield(true) {
			return
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). It is used only where a caller must be told
// apart from the running task (Run, Drain), never on the park path.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = "goroutine "
	if len(b) < len(prefix) {
		return 0
	}
	var id uint64
	for _, ch := range b[len(prefix):] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// onTask reports whether the caller is the kernel's running task.
func (k *Virtual) onTask() bool {
	id := goid()
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.cur != nil && k.cur.gid == id
}

// currentLocked returns the running task, which is the caller under the
// entry contract. Called with k.mu held; panics (releasing it) when no task
// runs, i.e. a blocking call came from outside the kernel.
func (k *Virtual) currentLocked() *task {
	c := k.cur
	if c == nil {
		k.mu.Unlock()
		panic("simtime: blocking call on a Virtual kernel from an untracked goroutine (wrap it in Run)")
	}
	return c
}

func (k *Virtual) spawn(fn func(), daemon bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.tasks == 0 {
		k.idle = make(chan struct{})
	}
	k.tasks++
	if daemon {
		k.daemons++
	}
	var c *task
	idleTasks.mu.Lock()
	if n := len(idleTasks.list); n > 0 {
		c = idleTasks.list[n-1]
		idleTasks.list[n-1] = nil
		idleTasks.list = idleTasks.list[:n-1]
	}
	idleTasks.mu.Unlock()
	if c == nil {
		c = newTask(k)
	}
	c.k, c.fn, c.daemon = k, fn, daemon
	k.readyLocked(c)
}

// parkLocked suspends the running task c until a wake appends it to the
// ready FIFO, registering it with ctx's cancellation watch. Called with k.mu
// held and c's wait state already recorded; returns with k.mu released,
// yielding nil or the context error of a cancellation wake.
func (k *Virtual) parkLocked(c *task, ctx context.Context, done <-chan struct{}) error {
	if done != nil {
		k.watchLocked(c, ctx, done)
	}
	c.err = nil
	// With nothing else ready, take the driver's next steps here: deliver
	// cancellations, fire timers. When that readies c first, c resumes
	// without a round trip through the driver — the same schedule, two
	// coroutine switches cheaper.
	for k.readyHead == nil && (k.deliverCancelsLocked() || k.fireTimersLocked()) {
	}
	if k.readyHead == c {
		k.popReadyLocked()
		k.mu.Unlock()
		return c.err
	}
	k.mu.Unlock()
	// A waker may append c to the ready FIFO before it yields; the driver
	// resumes it only after the yield, so no wake is lost.
	c.yield(false)
	return c.err
}

// popReadyLocked removes the head of the ready FIFO.
func (k *Virtual) popReadyLocked() {
	c := k.readyHead
	k.readyHead = c.rnext
	if k.readyHead == nil {
		k.readyTail = nil
	}
	c.rnext = nil
}

// readyLocked withdraws c from its cancellation watch and its pending
// deadline, appends it to the ready FIFO, and makes sure a driver will run
// it. The caller has already cleared c's other wait state.
func (k *Virtual) readyLocked(c *task) {
	if c.watch != nil {
		c.watch.remove(c)
	}
	if c.tidx >= 0 {
		k.timers.remove(c.tidx)
	}
	if k.readyTail == nil {
		k.readyHead = c
	} else {
		k.readyTail.rnext = c
	}
	k.readyTail = c
	k.kickLocked()
}

// kickLocked starts a driver when none runs, or wakes one that is waiting
// for an external event. A no-op on the kernel's own thread, where the
// driver is busy resuming the caller.
func (k *Virtual) kickLocked() {
	if !k.driving {
		k.driving = true
		go k.drive()
		return
	}
	if k.extWait {
		k.extWait = false
		select {
		case k.ext <- struct{}{}:
		default:
		}
	}
}

// drive is the driver loop (see the file comment).
func (k *Virtual) drive() {
	clean := false
	defer func() {
		if clean {
			return
		}
		if p := recover(); p != nil {
			panic(p)
		}
		// The running task called runtime.Goexit (t.FailNow in a test) and
		// iter.Pull re-raised it here. Retire the task and hand the loop to
		// a fresh driver.
		k.mu.Lock()
		c := k.cur
		k.cur = nil
		k.retireLocked(c, false)
		go k.drive()
		k.mu.Unlock()
	}()

	k.mu.Lock()
	for {
		c := k.readyHead
		if c == nil {
			if k.deliverCancelsLocked() || k.fireTimersLocked() {
				continue
			}
			if k.tasks == k.daemons {
				// Empty, or only daemons parked waiting for requests: idle,
				// not deadlocked. The next spawn or wake restarts a driver.
				break
			}
			k.awaitExternalLocked()
			continue
		}
		k.popReadyLocked()
		k.cur = c
		k.mu.Unlock()
		finished, _ := c.next()
		k.mu.Lock()
		k.cur = nil
		if finished {
			k.retireLocked(c, true)
		}
	}
	k.driving = false
	var stops []func() bool
	if k.tasks == 0 {
		// Drop the context registrations of an empty kernel, so an
		// abandoned one holds nothing.
		for done, w := range k.watches {
			if w.stop != nil {
				stops = append(stops, w.stop)
			}
			delete(k.watches, done)
		}
		clear(k.owned)
		clear(k.scan)
		k.scan = k.scan[:0]
	}
	k.mu.Unlock()
	clean = true
	for _, stop := range stops {
		stop()
	}
}

// retireLocked accounts for a finished task and keeps its coroutine for
// reuse when reusable.
func (k *Virtual) retireLocked(c *task, reuse bool) {
	k.tasks--
	if c.daemon {
		k.daemons--
	}
	if k.tasks == 0 {
		close(k.idle)
	}
	if !reuse {
		return
	}
	c.k, c.fn = nil, nil
	idleTasks.mu.Lock()
	keep := len(idleTasks.list) < maxIdleTasks
	if keep {
		idleTasks.list = append(idleTasks.list, c)
	}
	idleTasks.mu.Unlock()
	if !keep {
		c.stop()
	}
}

// awaitExternalLocked blocks the driver until a spawn or wake arrives from
// outside the kernel, and panics when none arrives within stallTimeout.
// Called with k.mu held, nothing ready, and no timer pending.
func (k *Virtual) awaitExternalLocked() {
	k.extWait = true
	k.mu.Unlock()
	if k.stall == nil {
		k.stall = time.NewTimer(stallTimeout)
	} else {
		k.stall.Reset(stallTimeout)
	}
	select {
	case <-k.ext:
		k.stall.Stop()
		k.mu.Lock()
	case <-k.stall.C:
		k.mu.Lock()
		if k.readyHead == nil && len(k.timers) == 0 && k.tasks > k.daemons && !k.deliverCancelsLocked() {
			panic(fmt.Sprintf(
				"simtime: deadlock at t=%v: %d tasks alive, none runnable, no pending timers",
				k.now.Load(), k.tasks))
		}
	}
	k.extWait = false
}

// fireTimersLocked advances the clock to the earliest pending deadline and
// readies every task waiting on it, in the order the deadlines were set. It
// reports whether there was a deadline to fire. Claims and cancellations
// withdraw a deadline at once, so every deadline in the heap is live.
func (k *Virtual) fireTimersLocked() bool {
	if len(k.timers) == 0 {
		return false
	}
	at := k.timers[0].at
	k.now.Store(at)
	for len(k.timers) > 0 && k.timers[0].at == at {
		c := k.timers.pop()
		if s := c.sel; s != nil {
			s.state.Store(selWoken)
			s.idx = Expired
			s.owner, c.sel = nil, nil
		}
		k.readyLocked(c)
	}
	return true
}

// ---------------------------------------------------------------------------
// Context cancellation
// ---------------------------------------------------------------------------

// ctxWatch tracks the tasks parked on one context, keyed by its Done
// channel. Contexts made by WithCancel on this kernel are owned: their
// cancel func readies the parked tasks itself, at the cancel call. Any
// other (foreign) context gets one context.AfterFunc per kernel, whose
// callback only nudges the driver; delivery happens in
// deliverCancelsLocked, which polls the foreign watches with parked tasks
// once the current instant's ready tasks have all run — so a cancel issued
// by a task is delivered at a deterministic point in the schedule.
type ctxWatch struct {
	ctx        context.Context
	done       <-chan struct{}
	stop       func() bool // nil for owned contexts
	head, tail *task       // parked tasks, in park order
	scanned    bool        // listed in k.scan
}

// WithCancel is context.WithCancel for a context that simulation code
// cancels itself. When parent can never be cancelled, the returned cancel
// also hands the cancellation to the kernel: tasks parked on the context
// become ready at the cancel call, in park order, and the kernel never
// polls the context. Otherwise it is context.WithCancel.
func WithCancel(k *Virtual, parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	if parent.Done() != nil {
		return ctx, cancel
	}
	done := ctx.Done()
	k.mu.Lock()
	k.owned[done] = struct{}{}
	k.mu.Unlock()
	return ctx, func() {
		cancel()
		k.mu.Lock()
		delete(k.owned, done)
		if w := k.watches[done]; w != nil {
			k.cancelWatchLocked(w)
		}
		k.mu.Unlock()
	}
}

func (w *ctxWatch) add(c *task) {
	c.watch, c.wprev, c.wnext = w, w.tail, nil
	if w.tail == nil {
		w.head = c
	} else {
		w.tail.wnext = c
	}
	w.tail = c
}

func (w *ctxWatch) remove(c *task) {
	if c.wprev == nil {
		w.head = c.wnext
	} else {
		c.wprev.wnext = c.wnext
	}
	if c.wnext == nil {
		w.tail = c.wprev
	} else {
		c.wnext.wprev = c.wprev
	}
	c.watch, c.wprev, c.wnext = nil, nil, nil
}

func (k *Virtual) watchLocked(c *task, ctx context.Context, done <-chan struct{}) {
	w := k.watches[done]
	if w == nil {
		w = &ctxWatch{ctx: ctx, done: done}
		if _, owned := k.owned[done]; !owned {
			w.stop = context.AfterFunc(ctx, func() { k.cancelFired(w) })
		}
		k.watches[done] = w
	}
	w.add(c)
	if w.stop != nil && !w.scanned {
		w.scanned = true
		k.scan = append(k.scan, w)
	}
}

// cancelFired runs (on its own goroutine) when a watched context is done:
// it makes sure a driver is around to deliver the cancellation.
func (k *Virtual) cancelFired(w *ctxWatch) {
	k.mu.Lock()
	if k.watches[w.done] == w {
		if w.head == nil {
			delete(k.watches, w.done)
		} else {
			k.kickLocked()
		}
	}
	k.mu.Unlock()
}

// deliverCancelsLocked wakes, with the context's error, every task parked
// on a context that is done, in park order. It reports whether it woke any.
func (k *Virtual) deliverCancelsLocked() bool {
	delivered := false
	keep := k.scan[:0]
	for _, w := range k.scan {
		switch {
		case w.head == nil:
			w.scanned = false
		case isDone(w.done):
			k.cancelWatchLocked(w)
			w.scanned = false
			delivered = true
		default:
			keep = append(keep, w)
		}
	}
	clear(k.scan[len(keep):])
	k.scan = keep
	return delivered
}

// cancelWatchLocked wakes, with the context's error, every task parked on
// w's context, in park order, and forgets the context: it is done for good.
func (k *Virtual) cancelWatchLocked(w *ctxWatch) {
	err := w.ctx.Err()
	for w.head != nil {
		c := w.head
		w.remove(c)
		k.cancelParkLocked(c, err)
	}
	delete(k.watches, w.done)
}

// cancelParkLocked withdraws c from whatever it is parked on and readies it
// with err as the park's result; readyLocked drops its deadline, if any.
func (k *Virtual) cancelParkLocked(c *task, err error) {
	switch {
	case c.waiter != nil:
		w := c.waiter
		w.state = waitCancelled
		w.owner, c.waiter = nil, nil
	case c.sel != nil:
		s := c.sel
		s.state.Store(selExpired)
		s.owner, c.sel = nil, nil
	}
	c.err = err
	k.readyLocked(c)
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

// scheduleLocked gives the parked task c a deadline. A task has at most one:
// a Sleep's wake or a Selector's expiry.
func (k *Virtual) scheduleLocked(c *task, at time.Duration) {
	k.timerSeq++
	k.timers.push(timerEntry{at: at, seq: k.timerSeq, c: c})
}

// timerEntry is one pending deadline. seq, taken from a per-kernel counter
// when the deadline is set, breaks ties so that deadlines sharing an instant
// fire in the order they were set.
type timerEntry struct {
	at  time.Duration
	seq uint64
	c   *task
}

func (e *timerEntry) before(o *timerEntry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// timerHeap is a binary min-heap of pending deadlines ordered by (at, seq).
// Every move keeps the owning task's tidx equal to its slot, so a claimed or
// cancelled deadline is removed in O(log n) the moment it is withdrawn.
type timerHeap []timerEntry

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes the earliest deadline and returns its task.
func (h *timerHeap) pop() *task { return h.remove(0) }

// remove deletes the deadline in slot i and returns its task, whose tidx
// becomes -1.
func (h *timerHeap) remove(i int) *task {
	old := *h
	c := old[i].c
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
	}
	old[n] = timerEntry{}
	*h = old[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	c.tidx = -1
	return c
}

func (h timerHeap) up(i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].c.tidx = i
		i = p
	}
	h[i] = e
	e.c.tidx = i
}

// down sifts slot i towards the leaves and reports whether it moved.
func (h timerHeap) down(i int) bool {
	e := h[i]
	start, n := i, len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&e) {
			break
		}
		h[i] = h[j]
		h[i].c.tidx = i
		i = j
	}
	h[i] = e
	e.c.tidx = i
	return i > start
}
