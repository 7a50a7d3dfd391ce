// Package netsim models the cluster interconnect: NICs and links with
// bandwidth fair-sharing and latency, on the same event-driven wait fabric
// (simtime.Selector) that device occupancy uses. It is the substrate for
// true multi-node runs, where gradient all-reduce traffic and remote
// dataset fetches contend for the same NICs — the regime the single-server
// evaluation cannot see.
//
// Topology: every endpoint (a training node, or the storage server) owns a
// full-duplex NIC attached to a non-blocking switch, so the contention
// points are the 2·E unidirectional NIC links (egress and ingress per
// endpoint); the switch core is never the bottleneck, matching a
// fat-tree-style cluster fabric. A Flow from src to dst occupies src's
// egress and dst's ingress for its byte count, after a fixed propagation
// latency.
//
// Sharing: concurrent flows receive max-min fair rates, computed by
// water-filling over the links each flow crosses — the classic fluid
// approximation of per-flow fair queueing (TCP-like long flows on a shared
// fabric). Rates change only at flow entry/exit and explicit bandwidth
// changes, all of which are kernel-visible events; each in-flight flow
// parks on a pooled Selector with an exact completion deadline and is woken
// to re-integrate when its rate changes. No polling, and under the virtual
// runtime every transfer completes at a deterministic instant — identical
// seeds reproduce multi-node runs bit-for-bit.
package netsim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Config sizes a fabric.
type Config struct {
	// Endpoints is the number of NIC-owning endpoints (training nodes plus
	// any storage servers).
	Endpoints int
	// Bandwidth is each NIC's full-duplex bandwidth in bytes/s per
	// direction (200 Gb/s ≈ 25e9, the paper's cluster interconnect).
	Bandwidth float64
	// Latency is the fixed per-transfer propagation delay.
	Latency time.Duration
}

// Fabric is the simulated interconnect. All methods are safe for
// concurrent use by tracked tasks.
type Fabric struct {
	rt      *simtime.Virtual
	latency time.Duration

	mu    sync.Mutex
	links []link // 2 per endpoint: egress = 2e, ingress = 2e+1
	flows []*flow
	lastT time.Duration
	// anchorT is the last reshare instant: link busy integrals advance
	// analytically from their anchors at the carried rate-sum fixed then.
	anchorT time.Duration
	// residuals is water-filling scratch (one slot per link), kept on the
	// fabric so resharing allocates nothing.
	residuals []residual

	// doneBytes counts bytes delivered by retired flows exactly (a
	// completed flow contributes its full size as an integer, a cancelled
	// one its analytic partial progress); in-flight progress is added
	// analytically at query time. Nothing is accumulated per wake segment,
	// so the counter cannot pick up truncation jitter from scheduling-
	// dependent intermediate wakes.
	doneBytes int64
	flowsDone int64

	// pool recycles flow records (and their selectors) across Transfer
	// calls: the steady-state transfer path allocates nothing.
	pool sync.Pool

	// tr, when set, records flow-lifetime spans (StageFlow, on retirement)
	// and rate-change instants (StageFlowRate). Rate instants are recorded
	// at settlement — the first advance across real elapsed time — never
	// from mid-instant transients, so the span set is independent of the
	// order same-instant membership events reached the mutex.
	tr *trace.Recorder
}

// link is one unidirectional NIC attachment.
type link struct {
	bw float64 // current bandwidth, bytes/s
	n  int     // flows crossing this link
	// busyIntegral accumulates ∫ (used-bandwidth / bw) dt in full-bandwidth
	// seconds, converted at the bandwidth in force when the traffic moved —
	// so a later SetBandwidth cannot retroactively rescale history.
	// Utilization over a window is Δbusy/Δt. It is anchored at the last
	// reshare (anchorB at Fabric.anchorT, advancing at rateSum/bw) and
	// recomputed analytically, never per wake segment.
	busyIntegral float64
	anchorB      float64
	rateSum      float64 // total rate of flows crossing this link
}

// flow is one in-flight transfer. Progress is anchored at the last rate
// change: remaining is recomputed analytically from (anchorRem, anchorT,
// rate) and the completion instant is the absolute finishAt stamped when
// the rate was assigned. Anchors move only at reshare points — canonical
// kernel events — never at spurious wakes, so a flow's trajectory is a
// pure function of the fabric's event history and two runs of the same
// script produce bit-identical completion times and byte counts no matter
// how the OS schedules the tasks in between.
type flow struct {
	egress, ingress int           // link indices
	size            int64         // original transfer size
	startT          time.Duration // entry time (sort key)
	remaining       float64       // bytes left as of Fabric.lastT
	rate            float64       // current max-min fair rate, bytes/s
	prevRate        float64       // rate before the current reshare pass
	anchorRem       float64       // remaining at the last rate change
	anchorT         time.Duration // time of the last rate change
	finishAt        time.Duration // absolute completion deadline at rate
	sel             *simtime.Selector
	parked          bool // holds an armed deadline for the current rate
	// settledRate is the rate last recorded as a StageFlowRate instant;
	// -1 until the flow's first settlement. Comparing against it (rather
	// than flagging changes inside reshareLocked) skips transients that
	// bend back within one instant — whose occurrence depends on event
	// order — so the recorded set stays deterministic.
	settledRate float64
}

// flowLess is the canonical flow order: link pair, then entry time, then
// size. Flows equal under this key are fully interchangeable — same links,
// same start, same size means identical rate and progress trajectories —
// so the order among them cannot affect any observable. Keeping f.flows
// sorted by this key makes every iteration (water-filling fixes, progress
// integration) independent of the order tasks happened to reach the
// fabric's mutex, which is the difference between "deterministic in
// virtual time" and "deterministic only if the scheduler cooperates".
func flowLess(a, b *flow) bool {
	if a.egress != b.egress {
		return a.egress < b.egress
	}
	if a.ingress != b.ingress {
		return a.ingress < b.ingress
	}
	if a.startT != b.startT {
		return a.startT < b.startT
	}
	return a.size < b.size
}

// residual is per-link water-filling state: capacity and flow count not
// yet claimed by fixed flows.
type residual struct {
	cap float64
	n   int
}

// unfixedRate marks a flow not yet assigned by the current water-filling
// pass.
const unfixedRate = -1

// New returns a fabric with cfg.Endpoints NICs. Endpoints and Bandwidth
// must be positive.
func New(rt *simtime.Virtual, cfg Config) *Fabric {
	if cfg.Endpoints <= 0 {
		panic("netsim: need at least one endpoint")
	}
	if cfg.Bandwidth <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	f := &Fabric{
		rt:        rt,
		latency:   cfg.Latency,
		links:     make([]link, 2*cfg.Endpoints),
		residuals: make([]residual, 2*cfg.Endpoints),
		lastT:     rt.Now(),
		anchorT:   rt.Now(),
	}
	for i := range f.links {
		f.links[i].bw = cfg.Bandwidth
	}
	return f
}

// Endpoints returns the number of NIC-owning endpoints.
func (f *Fabric) Endpoints() int { return len(f.links) / 2 }

// EnableTrace attaches a span recorder: each retiring flow records a
// StageFlow span (Node = source endpoint, Key = destination endpoint,
// Detail = bytes delivered) and each settled rate change a StageFlowRate
// instant (Detail = bytes/s). Call before traffic starts.
func (f *Fabric) EnableTrace(r *trace.Recorder) {
	f.mu.Lock()
	f.tr = r
	f.mu.Unlock()
}

// MinBandwidth is the floor SetBandwidth clamps to, in bytes/s. A zero or
// negative bandwidth would divide the water-filling rate computation by
// zero; clamping instead of panicking lets failure scripts express a full
// link outage (traffic crawls at 1 B/s — effectively parked — and resumes
// when the link is restored).
const MinBandwidth = 1.0

// SetBandwidth rescales one endpoint's NIC to bw bytes/s in both
// directions — the degraded-link failure injection. In-flight flows are
// re-shared immediately. Values below MinBandwidth (including zero and
// negative: a scripted full link failure) are clamped to MinBandwidth.
func (f *Fabric) SetBandwidth(endpoint int, bw float64) {
	if bw < MinBandwidth || bw != bw {
		bw = MinBandwidth
	}
	f.mu.Lock()
	f.advanceLocked()
	f.links[2*endpoint].bw = bw
	f.links[2*endpoint+1].bw = bw
	f.reshareLocked()
	f.mu.Unlock()
}

// BytesMoved returns the cumulative bytes delivered by completed and
// in-progress transfers (in-flight progress included analytically).
func (f *Fabric) BytesMoved() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advanceLocked()
	total := f.doneBytes
	for _, fl := range f.flows {
		total += fl.size - int64(fl.remaining)
	}
	return total
}

// FlowsCompleted returns how many transfers have retired (finished or
// cancelled mid-flight).
func (f *Fabric) FlowsCompleted() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flowsDone
}

// LinkBusySeconds returns a NIC direction's cumulative transfer work in
// full-bandwidth seconds (dir 0 = egress, 1 = ingress): utilization over a
// window is Δbusy/Δt.
func (f *Fabric) LinkBusySeconds(endpoint, dir int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advanceLocked()
	return f.links[2*endpoint+dir].busyIntegral
}

// Transfer moves n bytes from endpoint src to endpoint dst, occupying
// src's egress and dst's ingress NIC links. It blocks (in virtual time)
// for the propagation latency plus the fair-shared transfer time, and
// returns ctx.Err() if cancelled mid-flight. Loopback transfers (src ==
// dst) pay only the latency: node-local traffic never crosses the NIC.
func (f *Fabric) Transfer(ctx context.Context, src, dst int, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if src < 0 || src >= f.Endpoints() || dst < 0 || dst >= f.Endpoints() {
		return fmt.Errorf("netsim: transfer %d→%d outside fabric of %d endpoints", src, dst, f.Endpoints())
	}
	if f.latency > 0 {
		if err := f.rt.Sleep(ctx, f.latency); err != nil {
			return err
		}
	}
	if n <= 0 || src == dst {
		return nil
	}

	fl, _ := f.pool.Get().(*flow)
	if fl == nil {
		fl = &flow{sel: simtime.NewSelector(f.rt)}
	}
	fl.egress, fl.ingress = 2*src, 2*dst+1
	fl.size = n
	fl.remaining = float64(n)
	fl.rate = 0
	fl.settledRate = -1
	fl.finishAt = math.MaxInt64

	f.mu.Lock()
	f.advanceLocked()
	fl.startT = f.lastT
	fl.anchorRem = fl.remaining
	fl.anchorT = f.lastT
	f.links[fl.egress].n++
	f.links[fl.ingress].n++
	f.insertFlowLocked(fl)
	f.reshareLocked()

	for {
		if fl.remaining <= 1e-6 {
			f.exitLocked(fl)
			f.pool.Put(fl)
			return nil
		}
		// Park until the absolute completion instant stamped at the last
		// rate change. A rate drop while parked only makes this deadline
		// early — the flow re-integrates and re-parks for the remainder; a
		// rate rise wakes it through reshareLocked. Reset under f.mu so
		// wakes are serialized with the cycle boundary.
		deadline := fl.finishAt - f.lastT
		if deadline <= 0 {
			deadline = time.Nanosecond
		}
		fl.parked = true
		fl.sel.Reset()
		f.mu.Unlock()

		_, err := fl.sel.Wait(ctx, deadline)
		f.mu.Lock()
		fl.parked = false
		f.advanceLocked()
		if err != nil {
			f.exitLocked(fl)
			f.pool.Put(fl)
			return err
		}
	}
}

// insertFlowLocked places fl at its canonical position so f.flows stays
// sorted under flowLess regardless of mutex-acquisition order.
func (f *Fabric) insertFlowLocked(fl *flow) {
	i := len(f.flows)
	for j, e := range f.flows {
		if flowLess(fl, e) {
			i = j
			break
		}
	}
	f.flows = append(f.flows, nil)
	copy(f.flows[i+1:], f.flows[i:])
	f.flows[i] = fl
}

// exitLocked removes fl from the fabric (preserving the canonical order of
// the survivors) and re-shares them. Unlocks f.mu.
func (f *Fabric) exitLocked(fl *flow) {
	f.tr.Record(trace.Span{Start: fl.startT, End: f.lastT, Stage: trace.StageFlow,
		Node: int32(fl.egress / 2), Key: int64(fl.ingress / 2),
		Detail: fl.size - int64(fl.remaining)})
	f.doneBytes += fl.size - int64(fl.remaining)
	f.links[fl.egress].n--
	f.links[fl.ingress].n--
	for i, e := range f.flows {
		if e == fl {
			copy(f.flows[i:], f.flows[i+1:])
			last := len(f.flows) - 1
			f.flows[last] = nil
			f.flows = f.flows[:last]
			break
		}
	}
	f.flowsDone++
	f.reshareLocked()
	f.mu.Unlock()
}

// advanceLocked integrates every in-flight flow's progress (and each
// link's carried bytes) up to now. Progress is recomputed analytically
// from the flow's rate-change anchor rather than accumulated per segment,
// so the value of remaining at any instant — and therefore every
// completion time — does not depend on how many intermediate wakes
// happened to observe the flow along the way.
func (f *Fabric) advanceLocked() {
	now := f.rt.Now()
	if now <= f.lastT {
		return
	}
	if f.tr.Enabled() {
		// Rates assigned at lastT persisted across real elapsed time: they
		// are settled, record the ones that moved. Flows iterate in
		// canonical order, so the recorded set is schedule-independent.
		for _, fl := range f.flows {
			if fl.rate != fl.settledRate {
				f.tr.Instant(trace.Span{Stage: trace.StageFlowRate,
					Node: int32(fl.egress / 2), Key: int64(fl.ingress / 2),
					Detail: int64(fl.rate)}, f.lastT)
				fl.settledRate = fl.rate
			}
		}
	}
	el := (now - f.anchorT).Seconds()
	for i := range f.links {
		if ln := &f.links[i]; ln.rateSum > 0 {
			ln.busyIntegral = ln.anchorB + ln.rateSum/ln.bw*el
		}
	}
	for _, fl := range f.flows {
		if now >= fl.finishAt {
			fl.remaining = 0
			continue
		}
		rem := fl.anchorRem - fl.rate*(now-fl.anchorT).Seconds()
		if rem < 0 {
			rem = 0
		}
		fl.remaining = rem
	}
	f.lastT = now
}

// reshareLocked recomputes max-min fair rates by water-filling: repeatedly
// find the most-constrained link (smallest per-flow fair share among its
// unfixed flows), fix its flows at that share, subtract their bandwidth,
// and continue until every flow has a rate. Links are scanned in index
// order and flows in their canonical sorted order, so the result —
// including the float rounding of the residual-capacity updates — is
// deterministic. Each flow whose rate changed is re-anchored here: its
// progress and absolute completion instant are restamped from the new
// rate, making reshare points the only places a flow's trajectory can
// bend. Flows whose armed deadline became stale (rate rose) are woken to
// re-park; a rate drop is left to the armed deadline, which fires early
// and re-integrates exactly.
func (f *Fabric) reshareLocked() {
	for i := range f.links {
		f.links[i].anchorB = f.links[i].busyIntegral
		f.links[i].rateSum = 0
	}
	f.anchorT = f.lastT
	if len(f.flows) == 0 {
		return
	}
	res := f.residuals
	for i := range f.links {
		res[i] = residual{cap: f.links[i].bw, n: f.links[i].n}
	}
	unfixed := len(f.flows)
	for _, fl := range f.flows {
		fl.prevRate = fl.rate
		fl.rate = unfixedRate
	}
	for unfixed > 0 {
		// The tightest link's fair share bounds every flow through it.
		share := math.Inf(1)
		for i := range res {
			if res[i].n > 0 {
				if s := res[i].cap / float64(res[i].n); s < share {
					share = s
				}
			}
		}
		// Fix every flow crossing a bottleneck link at that share. Fixing
		// by value (not by one chosen link) handles several links tying in
		// a single deterministic pass.
		for _, fl := range f.flows {
			if fl.rate != unfixedRate {
				continue
			}
			eg, in := &res[fl.egress], &res[fl.ingress]
			if eg.cap/float64(eg.n) <= share+1e-9 || in.cap/float64(in.n) <= share+1e-9 {
				fl.rate = share
				eg.cap -= share
				eg.n--
				in.cap -= share
				in.n--
				unfixed--
			}
		}
	}
	now := f.lastT
	for _, fl := range f.flows {
		f.links[fl.egress].rateSum += fl.rate
		f.links[fl.ingress].rateSum += fl.rate
		if fl.rate != fl.prevRate {
			// Rate changes are the canonical anchor points: progress and
			// the absolute completion instant are restamped here and
			// nowhere else, so both are pure functions of the fabric's
			// event history.
			fl.anchorRem = fl.remaining
			fl.anchorT = now
			fl.finishAt = now + time.Duration(fl.anchorRem/fl.rate*float64(time.Second)) + time.Nanosecond
		}
		if fl.parked && fl.rate > fl.prevRate {
			// The armed deadline is now too late; wake the flow to re-park
			// at the higher rate. A rate drop is left alone — the armed
			// deadline fires early and the flow re-integrates exactly. A
			// claim that loses the race (the flow is concurrently completing
			// or cancelling) is safely refused by the selector.
			fl.sel.TryWake(0)
			fl.parked = false
		}
	}
}
