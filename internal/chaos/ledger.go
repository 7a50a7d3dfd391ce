package chaos

import (
	"context"
	"math"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
)

// Ledger is a run's fault bookkeeping, shared by single-machine sessions
// and multi-node jobs: the FaultStat table, the open fault windows keyed by
// (kind, node), the fault and fault-window spans, and the recoveries still
// waiting for their first completed step. Safe for concurrent use.
type Ledger struct {
	rt     simtime.Runtime
	tr     *trace.Recorder
	tenant int32
	stall  func(Kind) time.Duration

	mu      sync.Mutex
	faults  []FaultStat
	open    map[window]mark // mark.at: the stall counter at Open
	pending map[int]mark    // by node; mark.at: where recovery counts from
}

type window struct {
	kind Kind
	node int
}

type mark struct {
	idx int // into faults
	at  time.Duration
}

// NewLedger returns an empty ledger recording spans on tr under tenant.
// stall is the caller's attribution rule: the cumulative consumer stall a
// window of the given kind accrues. A window's StallDuring is its growth
// between Open and Close.
func NewLedger(rt simtime.Runtime, tr *trace.Recorder, tenant int32, stall func(Kind) time.Duration) *Ledger {
	return &Ledger{rt: rt, tr: tr, tenant: tenant, stall: stall,
		open: map[window]mark{}, pending: map[int]mark{}}
}

// Open records ev taking effect now and opens its window on node.
func (l *Ledger) Open(ev Event, node int) {
	l.mu.Lock()
	idx := l.add(ev, node)
	l.open[window{ev.Kind, node}] = mark{idx, l.stall(ev.Kind)}
	l.mu.Unlock()
}

// Close clears the window kind opened on node, if any, attributing the
// stall accrued in between.
func (l *Ledger) Close(kind Kind, node int) {
	now := l.rt.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.open[window{kind, node}]
	if !ok {
		return
	}
	delete(l.open, window{kind, node})
	f := &l.faults[w.idx]
	f.ClearedAt = now
	f.StallDuring = l.stall(kind) - w.at
	l.tr.Record(trace.Span{Start: f.AppliedAt, End: now, Stage: trace.StageFaultWindow,
		Tenant: l.tenant, Node: int32(node), Key: int64(kind)})
}

// Mark records an instantaneous ev (a resume or rejoin) on node and leaves
// its recovery pending: the next Recover measures it from `from`.
func (l *Ledger) Mark(ev Event, node int, from time.Duration) {
	l.mu.Lock()
	l.pending[node] = mark{l.add(ev, node), from}
	l.mu.Unlock()
}

// Recover resolves every pending recovery at now, the first completed step
// after the marked event.
func (l *Ledger) Recover(now time.Duration) {
	l.mu.Lock()
	for node, p := range l.pending {
		l.faults[p.idx].Recovery = now - p.at
		delete(l.pending, node)
	}
	l.mu.Unlock()
}

// add appends ev applied now and records its fault span. Caller holds mu.
func (l *Ledger) add(ev Event, node int) int {
	now := l.rt.Now()
	l.faults = append(l.faults, FaultStat{Event: ev, AppliedAt: now})
	l.tr.Instant(trace.Span{Stage: trace.StageFault, Tenant: l.tenant,
		Node: int32(node), Key: int64(ev.Kind)}, now)
	return len(l.faults) - 1
}

// Faults returns a copy of the fault table in application order (nil when
// nothing was applied).
func (l *Ledger) Faults() []FaultStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]FaultStat(nil), l.faults...)
}

// StallWorkers applies a WorkerStall to node's cpu: ~ev.Factor× its cores
// run hog work for ev.Duration, and the window closes when the last hog
// drains. The closer runs on wg, so the run's teardown waits for it.
func (l *Ledger) StallWorkers(wg *simtime.WaitGroup, cpu *device.Device, ev Event, node int) {
	l.Open(ev, node)
	hogs := simtime.NewWaitGroup(l.rt)
	for range max(1, int(math.Ceil(ev.Factor*cpu.Capacity()))) {
		hogs.Go("chaos-hog", func() { _ = cpu.Run(context.Background(), ev.Duration) })
	}
	wg.Go("chaos-hog-closer", func() {
		_ = hogs.Wait(context.Background())
		l.Close(WorkerStall, node)
	})
}

// ScheduleDiskSlowdowns pre-installs the disk events of evs on every
// non-nil disk as a slowdown timeline instead of applying them live: a
// read racing the scripted instant then sees a factor that is a pure
// function of its own start time, not of same-instant scheduling order.
// The replay engine keeps only the fault-window bookkeeping.
func ScheduleDiskSlowdowns(evs []Event, disks ...*storage.Disk) {
	for _, ev := range evs {
		if ev.Kind != DiskDegrade && ev.Kind != DiskRestore {
			continue
		}
		factor := ev.Factor
		if ev.Kind == DiskRestore {
			factor = 1
		}
		for _, d := range disks {
			if d != nil {
				d.ScheduleSlowdown(ev.At, factor)
			}
		}
	}
}
