// Package device models shared-capacity hardware: CPU core pools, GPU
// compute (with concurrent streams), and disk bandwidth.
//
// A Device has a capacity C of parallel units. k concurrent tasks each
// progress at rate min(1, C/k): with k ≤ C every task runs at full speed;
// beyond that the device is fair-shared. This single abstraction covers the
// three substrates the paper's evaluation depends on:
//
//   - CPU pool: C = number of cores; oversubscribed preprocessing workers
//     slow each other down (what MinatoLoader's worker scheduler must avoid).
//   - GPU: C slightly above 1 models concurrent CUDA streams — DALI's
//     GPU-side preprocessing overlaps training imperfectly, reproducing the
//     resource contention of §3.5 (Takeaway 5).
//   - Disk: C = 1, task work = bytes/bandwidth; concurrent readers share
//     bandwidth fairly (§5.5).
//
// Progress accounting is exact piecewise integration over a shared progress
// integral (see Device): rate changes are integrated once, device-wide, and
// only the next-to-finish task keeps a completion alarm armed.
package device

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Device is a shared-capacity resource.
//
// Progress is tracked with a shared integral (generalized processor
// sharing): every in-flight task advances at the common rate min(1, C/k),
// so a task entering with `work` seconds of compute completes when the
// device's progress integral reaches entry-progress + work. Completion
// order is therefore the order of completion targets — only the task with
// the earliest target needs a kernel timer; everyone else parks
// deadline-free and is woken when it becomes the front or the device
// empties toward it. A membership change (a task entering or leaving)
// costs O(log k) heap work and at most two wakes, where the previous
// per-entry accounting broadcast a wake to all k occupants on every rate
// change — quadratic exactly when a multi-tenant cold rush piles hundreds
// of readers onto a parallelism-4 disk.
type Device struct {
	rt   *simtime.Virtual
	name string
	cap  float64

	mu       sync.Mutex
	entries  entryHeap // min-heap by completion target
	rate     float64   // current per-task progress rate
	progress float64   // ∫ rate dt, in full-speed seconds, as of lastT
	lastT    time.Duration

	// Both integrals are anchored and recomputed analytically, never
	// accumulated per wake segment: progress(t) = anchorP + rate·(t−anchorPT).
	// Re-anchoring is DEFERRED to the next advance across real elapsed time:
	// membership events at one instant only update d.rate (and bump the
	// epoch when its value moves), and advanceLocked settles the anchor at
	// lastT before integrating past it. Deferral is what makes the integrals
	// order-independent within an instant: an enter and an exit coinciding
	// at time T leave the same settled rate no matter which the kernel
	// processes first, so the anchor state — and the float rounding of every
	// later completion stamp — is a pure function of the settled event
	// history. (Re-anchoring eagerly per change nets "moved twice" on one
	// order and "never moved" on the other for a transient 1 → C/(C+1) → 1
	// blip, and ns-scale rounding then depends on same-instant scheduling.)
	// Completion instants are stamped from the settled anchor — or, while
	// a change awaits settlement, from (lastT, progress), which is exactly
	// where the anchor will settle — so re-stamping is bitwise idempotent:
	// a spurious wake, or an early fire from a transiently-stamped
	// deadline, recomputes the identical instant no matter when it runs.
	anchorP    float64
	anchorPT   time.Duration
	anchorRate float64 // rate in effect since anchorPT
	anchorB    float64
	anchorBT   time.Duration
	anchorK    float64 // effective occupancy min(k, cap) since anchorBT
	rateEpoch  uint64

	// pool recycles entries (and their selectors) across Run calls: the
	// occupancy fast path allocates nothing in steady state.
	pool sync.Pool

	// busyIntegral accumulates ∫ min(k, cap) dt in unit-seconds: the total
	// amount of work the device has performed, as of lastT. Utilization
	// over a window is Δbusy / (cap · Δt).
	busyIntegral float64

	// tr, when set, records one StageDeviceRun span per completed Run —
	// occupancy as wall (virtual) intervals, work as Detail. Set before
	// tasks arrive; never cleared.
	tr       *trace.Recorder
	trTenant int32
	trNode   int32
	trKey    int64
}

// invalidEpoch marks an entry with no stamped completion instant.
const invalidEpoch = ^uint64(0)

type entry struct {
	target float64       // progress value at which this task completes
	finish time.Duration // absolute completion instant, per rate epoch
	epoch  uint64        // rate epoch finish was stamped under
	idx    int           // heap index, -1 when not in the heap
	// timed records that the task parked with its own completion timer —
	// every occupant of an uncontended device does, so the kernel's
	// same-deadline chaining batches them and no wake traffic is needed.
	// Under contention only the front is timed and later finishers ride
	// the completion cascade.
	timed bool
	sel   *simtime.Selector
}

// New returns a device with the given parallel capacity (must be positive).
func New(rt *simtime.Virtual, name string, capacity float64) *Device {
	if capacity <= 0 {
		panic("device: capacity must be positive")
	}
	return &Device{
		rt: rt, name: name, cap: capacity,
		rate: 1, anchorRate: 1,
		lastT: rt.Now(), anchorPT: rt.Now(), anchorBT: rt.Now(),
	}
}

// Name returns the device's diagnostic name.
func (d *Device) Name() string { return d.name }

// EnableTrace attaches a span recorder: every completed Run records a
// StageDeviceRun span covering its occupancy interval, with the requested
// full-speed work in Detail. Call before tasks start; the identity triple
// (tenant, node, key) distinguishes devices sharing one recorder.
func (d *Device) EnableTrace(r *trace.Recorder, tenant, node int32, key int64) {
	d.mu.Lock()
	d.tr, d.trTenant, d.trNode, d.trKey = r, tenant, node, key
	d.mu.Unlock()
}

// Capacity returns the device's parallel capacity.
func (d *Device) Capacity() float64 { return d.cap }

// Active returns the number of in-flight tasks.
func (d *Device) Active() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Run occupies the device for `work` of full-speed compute time. Under
// contention the wall (virtual) time taken is proportionally longer. It
// returns ctx.Err() if cancelled mid-run (best-effort under the virtual
// runtime; see simtime docs).
func (d *Device) Run(ctx context.Context, work time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if work <= 0 {
		return nil
	}
	t0 := d.rt.Now()
	e, _ := d.pool.Get().(*entry)
	if e == nil {
		e = &entry{sel: simtime.NewSelector(d.rt)}
	}
	d.mu.Lock()
	tr, trT, trN, trK := d.tr, d.trTenant, d.trNode, d.trKey
	d.advanceLocked()
	e.target = d.progress + work.Seconds()
	e.epoch = invalidEpoch
	heap.Push(&d.entries, e)
	// Entering needs no wake: this task arms its own deadline below, and a
	// rate drop only makes the current front's armed deadline early — it
	// will fire, re-integrate, and re-park for the remainder, which is
	// exact either way.
	d.setRateLocked()

	for {
		if d.progress >= e.target-1e-9 {
			d.exitLocked(e)
			d.pool.Put(e)
			tr.Record(trace.Span{Start: t0, End: d.rt.Now(), Stage: trace.StageDeviceRun,
				Tenant: trT, Node: trN, Key: trK, Detail: int64(work)})
			return nil
		}
		var deadline time.Duration
		if d.rate == 1 || d.entries[0] == e {
			// Uncontended tasks and the front hold exact completion
			// timers, armed at the absolute finish instant stamped once
			// per rate epoch from the epoch's anchor — so the instant (and
			// its float rounding) is the same no matter when or how often
			// the entry parks. A rate drop while parked only makes an
			// armed deadline early — the task re-integrates and re-parks,
			// which stays exact; a rate rise is handled by exitLocked
			// waking the timed entries.
			if e.epoch != d.rateEpoch {
				if d.rate == d.anchorRate {
					// Settled: stamp from the anchor, so the instant (and
					// its rounding) is independent of when the entry parks
					// or re-parks.
					e.finish = d.anchorPT + time.Duration((e.target-d.anchorP)/d.rate*float64(time.Second)) + time.Nanosecond
				} else {
					// A rate change at lastT awaits settlement: progress is
					// exact as of lastT and the new rate applies beyond it.
					// Settlement moves the anchor to exactly (progress,
					// lastT), so this stamp and later anchor-based ones
					// agree bit-for-bit.
					e.finish = d.lastT + time.Duration((e.target-d.progress)/d.rate*float64(time.Second)) + time.Nanosecond
				}
				e.epoch = d.rateEpoch
			}
			deadline = e.finish - d.lastT
			if deadline <= 0 {
				deadline = time.Nanosecond
			}
			e.timed = true
		} else {
			e.timed = false
		}
		// Reset under d.mu: membership wakes (TryWake) are attributed to
		// this cycle from here on.
		e.sel.Reset()
		d.mu.Unlock()

		_, err := e.sel.Wait(ctx, deadline)
		d.mu.Lock()
		d.advanceLocked()
		if err != nil {
			d.exitLocked(e)
			d.pool.Put(e)
			return err
		}
		// Completion, promotion to the front, or a rate change: loop and
		// re-evaluate.
	}
}

// exitLocked removes e from the heap and wakes whoever's deadline basis
// changed. A rate rise invalidates every armed (timed) deadline — they are
// now too late — so the timed entries are woken to re-arm; that only
// happens while the device is draining out of contention, and only entries
// that armed before contention are timed. Otherwise, the only task that
// can need attention is the new front after the old front left, and only
// when it parked deadline-free. The common uncontended exit — everyone
// holding an exact timer at an unchanged rate — disturbs nobody. Unlocks
// d.mu.
func (d *Device) exitLocked(e *entry) {
	wasFront := len(d.entries) > 0 && d.entries[0] == e
	if e.idx >= 0 {
		heap.Remove(&d.entries, e.idx)
	}
	oldRate := d.rate
	d.setRateLocked()
	switch {
	case len(d.entries) == 0:
	case d.rate > oldRate:
		for _, en := range d.entries {
			if en.timed {
				en.sel.TryWake(0)
			}
		}
		if front := d.entries[0]; !front.timed {
			front.sel.TryWake(0)
		}
	case wasFront:
		if front := d.entries[0]; !front.timed {
			front.sel.TryWake(0)
		}
	}
	d.mu.Unlock()
}

// setRateLocked recomputes the shared per-task rate for the current
// occupancy. It mutates only the rate (and the epoch, when the value
// moved): anchor settlement is deferred to the next advance across real
// elapsed time, so same-instant event ordering cannot perturb the
// integrals — see the field comment. Callers must have run advanceLocked
// in the same critical section so progress and busy time are current.
func (d *Device) setRateLocked() {
	r := 1.0
	if k := len(d.entries); float64(k) > d.cap {
		r = d.cap / float64(k)
	}
	if r != d.rate {
		d.rate = r
		d.rateEpoch++
	}
}

// advanceLocked brings progress and busy time up to now, analytically from
// the anchors. Rate changes made at lastT are settled first — the anchors
// move to lastT exactly when a differing rate is about to apply across
// (lastT, now], using only settled values, never transient mid-instant
// ones.
func (d *Device) advanceLocked() {
	now := d.rt.Now()
	if now <= d.lastT {
		return
	}
	if d.rate != d.anchorRate {
		// progress already equals anchorP + anchorRate·(lastT − anchorPT):
		// the previous advance computed exactly that expression.
		d.anchorP = d.progress
		d.anchorPT = d.lastT
		d.anchorRate = d.rate
	}
	k := float64(len(d.entries))
	if k > d.cap {
		k = d.cap
	}
	if k != d.anchorK {
		d.anchorB = d.busyIntegral
		d.anchorBT = d.lastT
		d.anchorK = k
	}
	d.progress = d.anchorP + d.anchorRate*(now-d.anchorPT).Seconds()
	d.busyIntegral = d.anchorB + d.anchorK*(now-d.anchorBT).Seconds()
	d.lastT = now
}

// accountLocked integrates busy time up to now (progress included, so the
// two integrals share one clock).
func (d *Device) accountLocked() { d.advanceLocked() }

// entryHeap is a min-heap of entries by completion target.
type entryHeap []*entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].target < h[j].target }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx, h[j].idx = i, j }
func (h *entryHeap) Push(x any)        { e := x.(*entry); e.idx = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// BusySeconds returns the cumulative full-speed work performed, in
// unit-seconds. Utilization over a window is Δbusy / (capacity · Δt).
func (d *Device) BusySeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.accountLocked()
	return d.busyIntegral
}

// UtilizationGauge returns a sampling function computing utilization in
// [0,1] over the window since the previous call. Suitable for a metrics
// collector. Not safe for use from multiple goroutines.
func (d *Device) UtilizationGauge() func() float64 {
	lastBusy := d.BusySeconds()
	lastT := d.rt.Now()
	return func() float64 {
		busy := d.BusySeconds()
		now := d.rt.Now()
		dt := (now - lastT).Seconds()
		var u float64
		if dt > 0 {
			u = (busy - lastBusy) / (d.cap * dt)
		}
		lastBusy, lastT = busy, now
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		return u
	}
}
