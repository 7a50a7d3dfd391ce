// Package trainer drives end-to-end training sessions: per-GPU consumer
// tasks pull batches from a data loader, pay the host-to-device copy when
// the loader has not prefetched, and occupy their GPU for the workload's
// step cost. The trainer records everything the paper's evaluation reports:
// training time, throughput over time, CPU/GPU utilization, disk reads,
// accuracy-vs-iteration curves, and batch-composition statistics.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/hardware"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/report"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/stats"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/workload"
)

// Factory builds a loader for a session. Loader packages provide adapters.
type Factory struct {
	Name string
	New  func(env *loader.Env, spec loader.Spec) loader.Loader
}

// Params tunes what a session records.
type Params struct {
	// Collect enables time-series sampling (CPU/GPU/disk/throughput) every
	// second of virtual time.
	Collect bool
	// TrackComposition enables Fig 11's per-batch slow-sample accounting,
	// classifying samples above the 75th preprocessing-cost percentile as
	// slow (MinatoLoader's profiler threshold).
	TrackComposition bool
	// AccuracyEvery records an accuracy point every N global iterations
	// (default 50).
	AccuracyEvery int
	// TraceSamples records a per-sample timeline (load, preprocessing
	// window, classification, delivery) into Report.SampleTraces — the raw
	// material for pipeline forensics. Costs memory proportional to the
	// sample count.
	TraceSamples bool
	// Trace, when non-nil, records deterministic spans from every layer of
	// the session (storage, caches, workers, devices, consumer steps,
	// chaos) into the given recorder — the input for Report.Trace,
	// Report.CriticalPath, and the Perfetto exporter. Nil disables tracing
	// at zero hot-path cost.
	Trace *trace.Recorder
	// Chaos is an optional fault-injection script replayed against the
	// session: worker stalls, disk brownouts, preemption/resume. Callers
	// validate it for a single-machine run (Script.Validate(0)) before
	// starting; the zero value injects nothing.
	Chaos chaos.Script
}

// AccPoint is one accuracy-curve sample (Fig 11a).
type AccPoint struct {
	Iter     int64
	Elapsed  time.Duration
	Accuracy float64
}

// SampleTrace is one sample's pipeline timeline.
type SampleTrace struct {
	Index        int
	Epoch        int
	RawBytes     int64
	LoadedAt     time.Duration
	PreprocStart time.Duration
	PreprocEnd   time.Duration
	PreprocCost  time.Duration
	MarkedSlow   bool
	TimesResumed int
	BatchSeq     int64
	TrainedAt    time.Duration
	GPU          int
}

// Report is the outcome of one training session.
type Report struct {
	Workload string
	Loader   string
	GPUs     int

	TrainTime time.Duration
	Batches   int64
	Samples   int64
	// TrainedBytes is the cumulative processed size trained, the paper's
	// throughput numerator (§5.1).
	TrainedBytes int64

	// Average utilizations in percent, over the whole run.
	AvgGPUUtil float64
	AvgCPUUtil float64

	// Time series when Params.Collect is set: "cpu", "gpu" (percent),
	// "disk" (bytes/s), "throughput" (bytes/s), plus loader-specific
	// gauges (e.g. minato_workers).
	Series map[string]*stats.TimeSeries

	// Composition (Fig 11) when Params.TrackComposition is set.
	SlowThreshold time.Duration
	SlowHist      []int64    // batches by number of slow samples (0..BatchSize)
	SlowPropByIt  []float64  // per-iteration slow proportion, delivery order
	AccCurve      []AccPoint // accuracy curve (Fig 11a)

	CacheStats storage.CacheStats
	DiskBytes  int64
	// MatCacheStats snapshots the materialized preprocessed-sample cache
	// (per-tenant on a shared substrate, whole-cache otherwise); zero when
	// the cache is not enabled.
	MatCacheStats matcache.Stats

	// SampleTraces holds per-sample timelines when Params.TraceSamples is
	// set, in delivery order.
	SampleTraces []SampleTrace

	// StallBreakdown attributes the session's consumer stalls (DataStall;
	// the barrier and network fields stay zero on a single machine), the
	// step-time quantiles, and the absorbed fault windows. When tracing is
	// enabled the critical-path analyzer is the source; otherwise the
	// consumers' stall counters fill it — both are stamped at the same
	// virtual instants.
	report.StallBreakdown
	// PreemptStall is the total time consumers spent parked by Preempt
	// events (across GPUs).
	PreemptStall time.Duration

	// StepHist is the step-interval histogram behind StepP50/StepP99,
	// exportable through WritePrometheus.
	StepHist *stats.LogHist

	// spans memoizes the session's recorded trace; rec is the live
	// recorder it snapshots from on first use.
	spans []trace.Span
	rec   *trace.Recorder
}

// Trace returns the session's recorded spans in canonical order (nil when
// tracing was disabled). The snapshot is taken lazily on first call — a
// traced run that never reads its trace pays nothing for the
// canonicalize-and-sort — and memoized, so read it before resetting the
// sink the session recorded into.
func (r *Report) Trace() []trace.Span {
	if r.spans == nil && r.rec.Enabled() {
		r.spans = r.rec.Snapshot()
	}
	return r.spans
}

// CriticalPath reassembles each delivered batch's latency attribution
// from the recorded trace (nil when tracing was disabled).
func (r *Report) CriticalPath() []trace.BatchPath {
	return trace.CriticalPath(r.Trace())
}

// WriteTraceCSV exports the sample trace for offline analysis.
func (r *Report) WriteTraceCSV(dir, name string) error {
	header := []string{"index", "epoch", "raw_bytes", "loaded_s", "preproc_start_s",
		"preproc_end_s", "preproc_cost_ms", "slow", "resumed", "batch_seq", "trained_s", "gpu"}
	rows := make([][]string, 0, len(r.SampleTraces))
	for _, tr := range r.SampleTraces {
		rows = append(rows, []string{
			fmt.Sprint(tr.Index), fmt.Sprint(tr.Epoch), fmt.Sprint(tr.RawBytes),
			fmt.Sprintf("%.3f", tr.LoadedAt.Seconds()),
			fmt.Sprintf("%.3f", tr.PreprocStart.Seconds()),
			fmt.Sprintf("%.3f", tr.PreprocEnd.Seconds()),
			fmt.Sprintf("%.1f", float64(tr.PreprocCost)/float64(time.Millisecond)),
			fmt.Sprint(tr.MarkedSlow), fmt.Sprint(tr.TimesResumed),
			fmt.Sprint(tr.BatchSeq),
			fmt.Sprintf("%.3f", tr.TrainedAt.Seconds()),
			fmt.Sprint(tr.GPU),
		})
	}
	return report.WriteCSV(dir, name, header, rows)
}

// WritePrometheus exports the session's collected metrics as Prometheus
// text format: one gauge per time series (Params.Collect) and the
// step-interval histogram when SLO tracking ran. Deterministic byte output
// for a deterministic run.
func (r *Report) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	series := make([]metrics.SeriesSnapshot, 0, len(names))
	for _, name := range names {
		series = append(series, metrics.SeriesSnapshot{Name: name, Points: r.Series[name].Points})
	}
	var hists []metrics.HistSnapshot
	if r.StepHist != nil && r.StepHist.N() > 0 {
		hists = append(hists, metrics.HistSnapshot{Name: "step_interval_seconds", Hist: r.StepHist})
	}
	return metrics.WritePrometheus(w, series, hists)
}

// Throughput returns average trained MB/s over the run.
func (r *Report) Throughput() float64 {
	sec := r.TrainTime.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(r.TrainedBytes) / 1e6 / sec
}

// AvgSlowProportion returns the mean per-batch slow-sample proportion.
func (r *Report) AvgSlowProportion() float64 {
	if len(r.SlowPropByIt) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.SlowPropByIt {
		sum += v
	}
	return sum / float64(len(r.SlowPropByIt))
}

// Run executes one training session on an existing testbed. It must be
// called from a task tracked by the runtime (e.g. inside Virtual.Run).
func Run(rt *simtime.Virtual, tb *hardware.Testbed, w workload.Workload, f Factory, p Params) (*Report, error) {
	env := &loader.Env{RT: rt, CPU: tb.CPU, GPUs: tb.GPUs, Store: tb.Store,
		WG: simtime.NewWaitGroup(rt), Pool: data.NewPool()}
	return RunEnv(env, tb.Disk, tb.Cache, w, f, p)
}

// RunEnv executes one training session over an existing environment — the
// entry point for clusters, whose sessions share one runtime, CPU, GPU set,
// disk, cache, and pool. The env's WG must be private to this session (it is
// waited on during teardown); disk and cache may be nil when the env has no
// storage statistics to report. Cache statistics in the report are
// attributed to env.Store.Tenant when the store routes a registered tenant,
// so co-running sessions see their own hits, not the cluster total. Like
// Run, it must be called from a task tracked by the runtime.
func RunEnv(env *loader.Env, disk *storage.Disk, cache *storage.PageCache, w workload.Workload, f Factory, p Params) (*Report, error) {
	ctx := context.Background()
	accEvery := int64(p.AccuracyEvery)
	if accEvery <= 0 {
		accEvery = 50
	}

	rt := env.RT
	wg := env.WG
	if p.Trace != nil {
		// Installed before the loader is built, so its background tasks see
		// the recorder from their first event.
		env.Trace = p.Trace
	}
	if env.Trace != nil && env.Store != nil && env.Store.Trace == nil {
		// A copy, not a mutation: the store value may be shared with
		// co-running sessions on a cluster substrate.
		cp := *env.Store
		cp.Trace, cp.TraceNode = env.Trace, env.TraceNode
		env.Store = &cp
	}
	spec := w.Spec()
	ld := f.New(env, spec)

	// The factory's registered name wins over the loader's self-report, so
	// backends registered under several names (e.g. configuration
	// variants) stay distinguishable in reports.
	loaderName := f.Name
	if loaderName == "" {
		loaderName = ld.Name()
	}
	rep := &Report{
		Workload: w.Name,
		Loader:   loaderName,
		GPUs:     len(env.GPUs),
	}

	step := &Step{RT: rt, W: w, GPUs: env.GPUs, PerEpoch: spec.BatchesPerEpoch() / len(env.GPUs),
		Source: func() (loader.Loader, bool) { return ld, false },
		Trace:  env.Trace, Tenant: env.TraceTenant(), Node: env.TraceNode}
	collector := metrics.NewCollector(rt, time.Second)
	if p.Collect {
		cpuGauge := env.CPU.UtilizationGauge()
		collector.Register("cpu", func() float64 { return 100 * cpuGauge() })
		gpuGauges := make([]func() float64, len(env.GPUs))
		for i, g := range env.GPUs {
			gpuGauges[i] = g.UtilizationGauge(rt)
		}
		collector.Register("gpu", func() float64 {
			sum := 0.0
			for _, g := range gpuGauges {
				sum += g()
			}
			return 100 * sum / float64(len(gpuGauges))
		})
		if disk != nil {
			collector.Register("disk", disk.ReadRateGauge(rt))
		}
		collector.Register("throughput", metrics.CounterRateGauge(rt, func() float64 {
			return float64(step.Bytes.Load())
		}))
		if ins, ok := ld.(loader.Instrumented); ok {
			ins.RegisterMetrics(collector)
		}
		collector.Start(wg)
	}

	var comp *composition
	if p.TrackComposition {
		comp = newComposition(w, 0.75, spec.BatchSize)
		rep.SlowThreshold = comp.threshold
	}

	startBusyCPU := env.CPU.BusySeconds()
	startBusyGPU := 0.0
	for _, g := range env.GPUs {
		startBusyGPU += g.BusySeconds()
	}
	start := rt.Now()

	if err := ld.Start(ctx); err != nil {
		return nil, err
	}

	cst := StartChaos(rt, env, disk, wg, p.Chaos, len(env.GPUs))
	var traceMu sync.Mutex
	step.Chaos = cst
	step.OnBatch = func(g int, it int64, b *data.Batch, end time.Duration) {
		cst.NoteStep(g, end)
		if comp != nil {
			comp.record(b)
		}
		if it%accEvery == 0 {
			comp.maybeAcc(rep, w, it, end-start)
		}
		if p.TraceSamples {
			traceMu.Lock()
			for _, s := range b.Samples {
				rep.SampleTraces = append(rep.SampleTraces, SampleTrace{
					Index: s.Index, Epoch: s.Epoch, RawBytes: s.RawBytes,
					LoadedAt: s.LoadedAt, PreprocStart: s.PreprocStart,
					PreprocEnd: s.PreprocEnd, PreprocCost: s.PreprocCost,
					MarkedSlow: s.MarkedSlow, TimesResumed: s.TimesResumed,
					BatchSeq: b.Seq, TrainedAt: end, GPU: g,
				})
			}
			traceMu.Unlock()
		}
	}

	consumers := simtime.NewWaitGroup(rt)
	var consumerErr atomic.Value
	for g := range env.GPUs {
		consumers.Go("gpu-consumer", func() {
			if err := step.Run(ctx, g); err != nil && !errors.Is(err, io.EOF) {
				consumerErr.Store(err)
			}
		})
	}

	if err := consumers.Wait(ctx); err != nil {
		return nil, err
	}
	end := step.End()
	if end < start {
		end = rt.Now()
	}
	rep.TrainTime = end - start
	rep.Batches = step.Batches.Load()
	rep.Samples = step.Samples.Load()
	rep.TrainedBytes = step.Bytes.Load()

	cst.Stop()
	collector.Stop()
	ld.Stop()
	if err := wg.Wait(ctx); err != nil {
		return nil, err
	}
	cst.Finish(rep)
	// DataStall comes from the consumers' own counter; with tracing on the
	// StageDataWait spans are stamped from the identical instants, so the
	// critical-path analyzer reproduces this value to the nanosecond. The
	// report keeps the recorder and snapshots lazily (Trace).
	rep.DataStall = time.Duration(step.DataStall.Load())
	rep.rec = env.Trace
	if e := consumerErr.Load(); e != nil {
		return nil, e.(error)
	}

	// Whole-run utilization from device busy accounting.
	dur := rep.TrainTime.Seconds()
	if dur > 0 {
		rep.AvgCPUUtil = 100 * (env.CPU.BusySeconds() - startBusyCPU) / (env.CPU.Capacity() * dur)
		busyGPU := 0.0
		for _, g := range env.GPUs {
			busyGPU += g.BusySeconds()
		}
		rep.AvgGPUUtil = 100 * (busyGPU - startBusyGPU) / (float64(len(env.GPUs)) * dur)
		if rep.AvgGPUUtil > 100 {
			rep.AvgGPUUtil = 100
		}
		if rep.AvgCPUUtil > 100 {
			rep.AvgCPUUtil = 100
		}
	}

	if p.Collect {
		rep.Series = make(map[string]*stats.TimeSeries)
		for _, name := range collector.Names() {
			rep.Series[name] = collector.Series(name)
		}
	}
	if comp != nil {
		rep.SlowHist = comp.hist
		rep.SlowPropByIt = comp.props
	}
	if env.Mat != nil {
		if env.Store != nil && env.Store.Tenant > 0 {
			rep.MatCacheStats = env.Mat.TenantStats(env.Store.Tenant)
		} else {
			rep.MatCacheStats = env.Mat.Stats()
		}
	}
	if cache != nil && env.Store != nil && env.Store.Tenant > 0 {
		// Shared-substrate session: attribute storage traffic to this
		// tenant rather than reporting cluster-wide totals.
		rep.CacheStats = cache.TenantStats(env.Store.Tenant)
		rep.DiskBytes = cache.TenantDiskBytes(env.Store.Tenant)
		return rep, nil
	}
	if cache != nil {
		rep.CacheStats = cache.Stats()
	}
	if disk != nil {
		rep.DiskBytes = disk.BytesRead()
	}
	return rep, nil
}

// Simulate runs a session on a fresh virtual-time kernel and testbed —
// the entry point experiments and benchmarks use.
func Simulate(cfg hardware.Config, w workload.Workload, f Factory, p Params) (*Report, error) {
	k := simtime.NewVirtual()
	var rep *Report
	var err error
	var tb *hardware.Testbed
	k.Run(func() {
		tb = hardware.NewTestbed(k, cfg)
		rep, err = Run(k, tb, w, f, p)
	})
	k.Drain()
	// The testbed dies with this call: hand its cache storage to the pools
	// so the next session starts warm.
	tb.Cache.Recycle()
	return rep, err
}

// ChaosState replays a single-machine fault script against a running
// session and keeps its SLO bookkeeping: the preemption gate, the
// step-interval histogram, and the fault ledger. A zero script leaves the
// consumer fast path with a nil-pauser check and a histogram insert per
// batch. The trainer drives it through Step; loading sessions
// (minato.Session.Batches) drive it from the facade through
// StartChaos/Gate/NoteStep/Stop/Finish.
type ChaosState struct {
	rt     *simtime.Virtual
	cpu    *device.Device
	wg     *simtime.WaitGroup
	node   int // the session's trace node: every fault window's key
	ledger *chaos.Ledger

	pauser *chaos.Pauser
	eng    *chaos.Engine

	preemptStall atomic.Int64

	mu       sync.Mutex
	hist     *stats.LogHist
	lastStep []time.Duration
	terminal []bool // per-Preempt: no Resume scheduled after it
	termIdx  int
}

// StartChaos launches the event replay task (none for an empty script).
// The script must already be validated for a single-machine run
// (Script.Validate(0)); gpus sizes the per-consumer step-interval
// tracking.
func StartChaos(rt *simtime.Virtual, env *loader.Env, disk *storage.Disk, wg *simtime.WaitGroup, script chaos.Script, gpus int) *ChaosState {
	c := &ChaosState{
		rt: rt, cpu: env.CPU, wg: wg, node: int(env.TraceNode),
		hist: stats.NewLogHist(), lastStep: make([]time.Duration, gpus),
	}
	// A preemption's stall is its own window — every consumer is parked
	// for its full extent — so its counter is the clock; the other kinds
	// attribute none.
	c.ledger = chaos.NewLedger(rt, env.Trace, env.TraceTenant(), func(k chaos.Kind) time.Duration {
		if k == chaos.Preempt {
			return rt.Now()
		}
		return 0
	})
	now := rt.Now()
	for i := range c.lastStep {
		c.lastStep[i] = now
	}
	if script.Empty() {
		return c
	}
	evs := script.Sorted()
	for i, ev := range evs {
		if ev.Kind != chaos.Preempt {
			continue
		}
		term := true
		for _, later := range evs[i+1:] {
			if later.Kind == chaos.Resume {
				term = false
				break
			}
		}
		c.terminal = append(c.terminal, term)
	}
	chaos.ScheduleDiskSlowdowns(evs, disk)
	c.pauser = chaos.NewPauser(rt)
	c.eng = chaos.StartEngine(rt, wg, evs, c.apply)
	return c
}

// apply runs in the engine's task at each event's scripted time.
func (c *ChaosState) apply(ev chaos.Event) {
	switch ev.Kind {
	case chaos.DiskDegrade:
		// The slowdown itself was scheduled at StartChaos; only the fault
		// window is recorded here.
		c.ledger.Open(ev, c.node)
	case chaos.DiskRestore:
		c.ledger.Close(chaos.DiskDegrade, c.node)
	case chaos.WorkerStall:
		c.ledger.StallWorkers(c.wg, c.cpu, ev, c.node)
	case chaos.Preempt:
		term := false
		c.mu.Lock()
		if c.termIdx < len(c.terminal) {
			term = c.terminal[c.termIdx]
			c.termIdx++
		}
		c.mu.Unlock()
		c.ledger.Open(ev, c.node)
		c.pauser.Pause(term)
	case chaos.Resume:
		c.pauser.Resume()
		c.ledger.Close(chaos.Preempt, c.node)
		c.ledger.Mark(ev, c.node, c.rt.Now())
	}
}

// NoteStep records a consumer's batch-completion interval and resolves a
// pending post-resume recovery measurement.
func (c *ChaosState) NoteStep(g int, now time.Duration) {
	c.mu.Lock()
	c.hist.AddDuration(now - c.lastStep[g])
	c.lastStep[g] = now
	c.mu.Unlock()
	c.ledger.Recover(now)
}

// Stop halts the replay; pending events are discarded. Call before
// waiting out the session's background tasks, so a script outliving the
// run cannot append trailing fault records.
func (c *ChaosState) Stop() { c.eng.Stop() }

// Gate parks the calling consumer while the session is preempted,
// accumulating the preemption stall; a terminal preemption (no resume
// scheduled) returns ErrPreempted. Consumers call it at every batch
// boundary. Safe on a nil state, which never pauses.
func (c *ChaosState) Gate(ctx context.Context) error {
	if c == nil {
		return nil
	}
	st, err := c.pauser.Wait(ctx)
	if st > 0 {
		c.preemptStall.Add(int64(st))
	}
	return err
}

// Finish copies the SLO metrics into the report. Call after the session's
// background tasks (hog closers included) have drained.
func (c *ChaosState) Finish(rep *Report) {
	rep.StepP50 = c.hist.QuantileDuration(0.5)
	rep.StepP99 = c.hist.QuantileDuration(0.99)
	rep.StepHist = c.hist
	rep.PreemptStall = time.Duration(c.preemptStall.Load())
	rep.Faults = c.ledger.Faults()
}

// composition tracks Fig 11's batch statistics.
type composition struct {
	threshold time.Duration
	mu        sync.Mutex
	hist      []int64
	props     []float64
}

func newComposition(w workload.Workload, pct float64, batchSize int) *composition {
	return &composition{
		threshold: w.SlowThreshold(pct),
		hist:      make([]int64, batchSize+1),
	}
}

func (c *composition) record(b *data.Batch) {
	slow := 0
	for _, s := range b.Samples {
		if s.PreprocCost > c.threshold {
			slow++
		}
	}
	c.mu.Lock()
	if slow < len(c.hist) {
		c.hist[slow]++
	}
	c.props = append(c.props, float64(slow)/float64(len(b.Samples)))
	c.mu.Unlock()
}

// maybeAcc appends an accuracy point; safe on a nil receiver so call sites
// stay unconditional.
func (c *composition) maybeAcc(rep *Report, w workload.Workload, iter int64, elapsed time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	rep.AccCurve = append(rep.AccCurve, AccPoint{Iter: iter, Elapsed: elapsed, Accuracy: w.Accuracy(iter)})
	c.mu.Unlock()
}
