// Package core implements MinatoLoader, the paper's contribution: a
// general-purpose data loader that eliminates head-of-line blocking through
// a dynamic, sample-aware load balancer (§4).
//
// Architecture (Fig 5):
//
//	index stream → preprocessing workers ──fast──▶ fast queue ─┐
//	                    │ timeout t_out                        ├─▶ batch
//	                    └──────▶ temp queue ──background──▶ slow queue
//	                                                           │
//	                        batch constructor (one per GPU) ◀──┘
//	                                  │
//	                        per-GPU batch queues ──▶ Next()
//
// Workers apply the pipeline with a per-sample compute budget t_out
// (Algorithm 1). Samples finishing within budget enter the fast queue;
// samples exceeding it are parked in the temp queue with the index of the
// interrupted transform, and background processing resumes from there
// (re-executing the partial transform). Batch constructors drain the fast
// queue first, then the slow queue, so no sample ever stalls a batch.
//
// The timeout comes from a profiler: during warmup every sample is
// optimistically treated as fast while statistics accumulate; afterwards
// t_out is the 75th percentile of observed preprocessing times, falling
// back to the 90th when too many samples classify slow, and re-profiling
// continues in the background (§4.2).
//
// A worker scheduler adjusts the number of preprocessing workers using the
// paper's Formulas 1–2: queue emptiness and worker busyness raise the
// count; full queues and idle workers lower it (§4.3).
package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/transform"
)

// Config holds MinatoLoader's tuning knobs with the paper's defaults.
type Config struct {
	// InitialWorkersPerGPU seeds the worker pool (12 per GPU, §4.3/§5.1).
	InitialWorkersPerGPU int
	// MaxWorkers caps the pool; 0 means the CPU core count (§4.3).
	MaxWorkers int
	// QueueCap bounds each queue (100, §5.1).
	QueueCap int

	// Profiler (§4.2).
	TimeoutPercentile  float64 // default 0.75
	FallbackPercentile float64 // default 0.90
	MaxSlowFraction    float64 // fallback trigger, default 0.40
	WarmupSamples      int     // optimistic phase length, default 48

	// Scheduler (Formulas 1–2).
	Alpha, Beta   float64       // sensitivity, default 2 and 2
	CPUThreshold  float64       // θ_c, default 0.7
	DeltaClip     int           // |Δ| bound, default 2
	SchedInterval time.Duration // default 1s

	// OrderPreserving disables reordering for curriculum/strict-order
	// training (§6): batches follow the sampler's order exactly and the
	// loader behaves like PyTorch DataLoader.
	OrderPreserving bool

	// SizeHeuristicThreshold, when positive, replaces the timeout
	// classifier with an upfront "predict slow if raw size exceeds
	// threshold" rule — the Fig 3a heuristic study. The timeout path is
	// disabled.
	SizeHeuristicThreshold int64

	// DisableAdaptiveWorkers freezes the pool at its initial size
	// (ablation).
	DisableAdaptiveWorkers bool
	// RestartSlowFromScratch re-runs the whole pipeline for timed-out
	// samples instead of resuming from the recorded transform index
	// (ablation of Algorithm 1's resume design).
	RestartSlowFromScratch bool

	// LoaderName overrides the reported name.
	LoaderName string
}

// DefaultConfig returns the paper's configuration (§5.1).
func DefaultConfig() Config {
	return Config{
		InitialWorkersPerGPU: 12,
		QueueCap:             100,
		TimeoutPercentile:    0.75,
		FallbackPercentile:   0.90,
		MaxSlowFraction:      0.40,
		WarmupSamples:        48,
		Alpha:                2, Beta: 2,
		CPUThreshold:  0.7,
		DeltaClip:     2,
		SchedInterval: time.Second,
	}
}

func (c *Config) fillDefaults(numGPUs, cores int) {
	d := DefaultConfig()
	if c.InitialWorkersPerGPU <= 0 {
		c.InitialWorkersPerGPU = d.InitialWorkersPerGPU
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = cores
	}
	if c.QueueCap <= 0 {
		c.QueueCap = d.QueueCap
	}
	if c.TimeoutPercentile <= 0 {
		c.TimeoutPercentile = d.TimeoutPercentile
	}
	if c.FallbackPercentile <= 0 {
		c.FallbackPercentile = d.FallbackPercentile
	}
	if c.MaxSlowFraction <= 0 {
		c.MaxSlowFraction = d.MaxSlowFraction
	}
	if c.WarmupSamples <= 0 {
		c.WarmupSamples = d.WarmupSamples
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.Beta == 0 {
		c.Beta = d.Beta
	}
	if c.CPUThreshold <= 0 {
		c.CPUThreshold = d.CPUThreshold
	}
	if c.DeltaClip <= 0 {
		c.DeltaClip = d.DeltaClip
	}
	if c.SchedInterval <= 0 {
		c.SchedInterval = d.SchedInterval
	}
	_ = numGPUs
}

// tempItem is a timed-out sample parked for background completion,
// carrying the interrupted transform index (Algorithm 1 line 11).
type tempItem struct {
	s *data.Sample
}

// Loader is MinatoLoader.
type Loader struct {
	env  *loader.Env
	spec loader.Spec
	cfg  Config

	idx     *loader.IndexSource
	fastQ   *queue.Queue[*data.Sample]
	slowQ   *queue.Queue[*data.Sample]
	tempQ   *queue.Queue[tempItem]
	batchQs []*queue.Queue[*data.Batch]

	profiler *Profiler
	sched    *Scheduler

	// mat is the cluster's materialized preprocessed-sample cache (nil
	// disables the warm path); matSig keys this loader's entries by its
	// pipeline, matTenant attributes its traffic. See warm.go.
	mat       *matcache.Cache
	matSig    uint64
	matTenant int

	// Accounting for batch-constructor termination: a constructor may
	// exit only when every emitted sample has been consumed or abandoned.
	emitted   atomic.Int64 // samples handed to workers
	enqueued  atomic.Int64 // samples placed into fast or slow queues
	consumed  atomic.Int64 // samples drawn into batches
	abandoned atomic.Int64 // samples lost to preprocessing faults
	faults    atomic.Int64 // fault events (diagnostics)
	srcDone   atomic.Bool  // index stream exhausted

	// gate broadcasts accounting changes that can flip drained() without a
	// queue operation (faults, source exhaustion, worker exits, the final
	// consume), so parked batch constructors re-check instead of polling.
	gate *simtime.Gate

	batchSeq atomic.Int64
	// assembled counts the full batches the constructors have built; see
	// batchConstructor for how the delivery budget is split among them.
	assembled atomic.Int64
	ordered   *orderedBuffer // OrderPreserving mode only

	stopOnce sync.Once
	stopFlag atomic.Bool
	cancel   context.CancelFunc
}

// New returns a MinatoLoader over the given spec.
func New(env *loader.Env, spec loader.Spec, cfg Config) *Loader {
	cfg.fillDefaults(len(env.GPUs), int(env.CPU.Capacity()))
	l := &Loader{
		env: env, spec: spec, cfg: cfg,
		idx:   loader.NewIndexSource(env, spec, 4*spec.BatchSize),
		fastQ: queue.New[*data.Sample](env.RT, "fast", cfg.QueueCap),
		slowQ: queue.New[*data.Sample](env.RT, "slow", cfg.QueueCap),
		tempQ: queue.New[tempItem](env.RT, "temp", cfg.QueueCap),
		gate:  simtime.NewGate(),
	}
	for range env.GPUs {
		l.batchQs = append(l.batchQs,
			queue.New[*data.Batch](env.RT, "batch", cfg.QueueCap))
	}
	l.profiler = NewProfiler(ProfilerConfig{
		TimeoutPercentile:  cfg.TimeoutPercentile,
		FallbackPercentile: cfg.FallbackPercentile,
		MaxSlowFraction:    cfg.MaxSlowFraction,
		WarmupSamples:      cfg.WarmupSamples,
	})
	l.sched = NewScheduler(l, cfg)
	if cfg.OrderPreserving {
		l.ordered = newOrderedBuffer()
	}
	if env.Mat != nil && spec.Pipeline != nil {
		l.mat = env.Mat
		l.matSig = spec.Pipeline.Signature()
		if env.Store != nil {
			l.matTenant = env.Store.Tenant
		}
	}
	return l
}

// Name implements loader.Loader.
func (l *Loader) Name() string {
	if l.cfg.LoaderName != "" {
		return l.cfg.LoaderName
	}
	return "minato"
}

// maxWorkersNow returns the pool's current upper bound: the configured
// MaxWorkers clamped by the environment's worker governor, when one is set.
// Re-read on every scheduling decision so a cluster rebalancing tenant
// quotas takes effect at the next tick.
func (l *Loader) maxWorkersNow() int {
	m := l.cfg.MaxWorkers
	if l.env.Gov != nil {
		if q := l.env.Gov.WorkerQuota(); q < m {
			m = q
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Start implements loader.Loader.
func (l *Loader) Start(ctx context.Context) error {
	ctx, l.cancel = simtime.WithCancel(l.env.RT, ctx)
	l.idx.Start(ctx)

	initial := l.cfg.InitialWorkersPerGPU * len(l.env.GPUs)
	if max := l.maxWorkersNow(); initial > max {
		initial = max
	}
	l.sched.SetTarget(initial)
	for i := 0; i < initial; i++ {
		l.spawnWorker(ctx)
	}
	if !l.cfg.DisableAdaptiveWorkers {
		l.sched.Start(ctx)
	}

	for g := range l.batchQs {
		g := g
		l.env.WG.Go("minato-batcher", func() {
			l.batchConstructor(ctx, g)
		})
	}
	return nil
}

// spawnWorker launches one preprocessing worker. Workers prefer resuming
// timed-out samples (temp queue) over starting new ones, which keeps slow
// samples flowing into upcoming batches instead of deferring them to the
// end (§4.1: "MinatoLoader does not defer these samples to the very end").
//
// An idle worker blocks on "temp queue or index stream has an item" through
// the simtime wait fabric; nothing in the steady state polls. A panic or a
// per-sample error in loading or a user transform is contained to the
// sample being processed: the sample is abandoned (counted, surfaced via
// Faults) and the worker keeps serving — matching the isolation a
// multiprocessing-based loader gets from worker processes.
func (l *Loader) spawnWorker(ctx context.Context) {
	id := l.sched.workerSpawned()
	l.env.WG.Go("minato-worker", func() {
		defer func() {
			l.sched.workerExited()
			// A worker exit can flip drained(); re-check parked constructors.
			l.gate.Pulse()
		}()
		sel := simtime.NewSelector(l.env.RT)
		sources := []simtime.Source{l.tempQ, l.idx.Ready()}
		for {
			if l.stopFlag.Load() || l.sched.shouldRetire(id) {
				// This worker may have just claimed a wakeup for an item it
				// will not consume; re-deliver so a parked peer picks it up
				// instead of stranding it (on stop, Close wakes everyone).
				l.tempQ.Kick()
				l.idx.Out().Kick()
				return
			}
			// Background completion first (slow-task work).
			if item, ok, _ := l.tempQ.TryGet(); ok {
				if !l.runSample(ctx, func() error { return l.finishSlow(ctx, item.s) }, item.s.OriginalOrder) {
					return
				}
				continue
			}
			// New sample.
			it, ok, err := l.idx.Out().TryGet()
			if err != nil { // index stream closed and drained
				if !l.srcDone.Swap(true) {
					l.gate.Pulse()
				}
				// Drain remaining temp items, then exit.
				item, ok2, _ := l.tempQ.TryGet()
				if !ok2 {
					return
				}
				if !l.runSample(ctx, func() error { return l.finishSlow(ctx, item.s) }, item.s.OriginalOrder) {
					return
				}
				continue
			}
			if !ok {
				// Idle: block until the temp queue or the index stream has
				// an item (or either closes).
				if _, werr := sel.Select(ctx, 0, sources...); werr != nil {
					return
				}
				continue
			}
			l.emitted.Add(1)
			if !l.runSample(ctx, func() error { return l.processNew(ctx, it) }, it.Seq) {
				return
			}
		}
	})
}

// traceSample records a worker-layer span for sample s; a no-op without
// tracing. StageMatFill spans cover the work performed under the leader
// claim: a slow sample's parked window shows up as the gap between its
// budgeted and resumed transform spans, not as fill time.
func (l *Loader) traceSample(stage trace.Stage, start, end time.Duration, s *data.Sample) {
	if l.env.Trace == nil {
		return
	}
	l.env.Trace.Record(trace.Span{Start: start, End: end, Stage: stage,
		Tenant: l.env.TraceTenant(), Node: l.env.TraceNode,
		Key: int64(s.Index), Seq: s.OriginalOrder, Detail: s.RawBytes})
}

// errSamplePanic marks a recovered transform panic so runSample treats it
// like any other per-sample failure.
var errSamplePanic = errors.New("minato: panic in sample processing")

// runSample executes one sample-processing step, containing panics and
// per-sample errors (a failed load, a corrupt sample rejected by a
// transform) to the sample itself: the sample is abandoned and the worker
// keeps serving. It reports whether the worker should continue; false means
// shutdown (queue closed or context cancelled), where abandoning would be
// wrong — the sample is not lost, the session is ending.
func (l *Loader) runSample(ctx context.Context, fn func() error, seq int64) bool {
	err := l.guard(fn)
	switch {
	case err == nil:
		return true
	case errors.Is(err, queue.ErrClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	default:
		l.abandon(seq)
		return true
	}
}

// guard runs fn, converting a panic into errSamplePanic.
func (l *Loader) guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errSamplePanic
		}
	}()
	return fn()
}

// abandon records the loss of the sample with the given draw order: the
// abandoned counter keeps the termination accounting consistent so batch
// constructors do not wait for a sample that will never arrive, the ordered
// buffer (if any) skips the hole, and the gate wakes parked constructors to
// re-check drained().
func (l *Loader) abandon(seq int64) {
	l.abandoned.Add(1)
	l.faults.Add(1)
	if l.cfg.OrderPreserving {
		l.ordered.skip(seq)
	}
	l.gate.Pulse()
}

// Faults returns the number of samples abandoned due to failing or
// panicking loads and transforms.
func (l *Loader) Faults() int64 { return l.faults.Load() }

// processNew runs the load-balancer path of Algorithm 1 for one sample.
func (l *Loader) processNew(ctx context.Context, it loader.IndexItem) error {
	if l.mat != nil {
		return l.processNewWarm(ctx, it)
	}
	s, err := loader.LoadSample(ctx, l.env, l.spec, it)
	if err != nil {
		return err
	}
	s.PreprocStart = l.env.RT.Now()

	// Fig 3a heuristic mode: classify upfront by size, no timeout.
	if l.cfg.SizeHeuristicThreshold > 0 {
		if s.RawBytes > l.cfg.SizeHeuristicThreshold {
			s.MarkedSlow = true
			return l.tempQ.Put(ctx, tempItem{s: s})
		}
		if err := l.spec.Pipeline.Apply(ctx, l.env.CPU, s); err != nil {
			l.env.Pool.Put(s)
			return err
		}
		s.PreprocEnd = l.env.RT.Now()
		l.traceSample(trace.StageTransform, s.PreprocStart, s.PreprocEnd, s)
		l.profiler.Record(s.PreprocCost)
		return l.putFast(ctx, s)
	}

	budget := l.profiler.Timeout()
	err = l.spec.Pipeline.ApplyBudget(ctx, l.env.CPU, s, budget)
	switch {
	case err == nil:
		s.PreprocEnd = l.env.RT.Now()
		l.traceSample(trace.StageTransform, s.PreprocStart, s.PreprocEnd, s)
		l.profiler.Record(s.PreprocCost)
		l.profiler.Classified(false)
		return l.putFast(ctx, s)
	case errors.Is(err, transform.ErrInterrupted):
		l.traceSample(trace.StageTransform, s.PreprocStart, l.env.RT.Now(), s)
		s.MarkedSlow = true
		l.profiler.Classified(true)
		if l.cfg.RestartSlowFromScratch {
			// Ablation: discard partial progress. The reset copy comes from
			// the pool and the partially-processed instance goes back to it.
			s = l.env.Pool.CloneReset(s)
			s.MarkedSlow = true
		}
		return l.tempQ.Put(ctx, tempItem{s: s})
	default:
		l.env.Pool.Put(s)
		return err
	}
}

// finishSlow completes a timed-out sample from its recorded transform
// index and publishes it to the slow queue (Algorithm 1 lines 14–18).
// With the materialized cache enabled, every parked sample carries a
// leader claim from the warm path: the finished output is published to the
// cache, and any failure (or panic unwinding to runSample) aborts the
// claim so parked co-tenants re-elect a leader instead of deadlocking.
func (l *Loader) finishSlow(ctx context.Context, s *data.Sample) error {
	settled := true
	var mk matcache.Key
	if l.mat != nil {
		mk = matcache.Key{Obj: s.Key, Sig: l.matSig}
		settled = false
		defer func() {
			if !settled {
				l.mat.Abort(mk)
			}
		}()
	}
	s.ResumedFrom = s.NextTransform
	s.TimesResumed++
	resumeStart := l.env.RT.Now()
	if err := l.spec.Pipeline.Apply(ctx, l.env.CPU, s); err != nil {
		l.env.Pool.Put(s)
		return err
	}
	s.PreprocEnd = l.env.RT.Now()
	l.traceSample(trace.StageTransform, resumeStart, s.PreprocEnd, s)
	l.profiler.Record(s.PreprocCost)
	if l.mat != nil {
		l.mat.Complete(l.matTenant, mk, matEntry(s))
		settled = true
		l.traceSample(trace.StageMatFill, resumeStart, s.PreprocEnd, s)
	}
	if l.cfg.OrderPreserving {
		l.ordered.add(s)
		l.enqueued.Add(1)
		return nil
	}
	l.enqueued.Add(1)
	return l.slowQ.Put(ctx, s)
}

func (l *Loader) putFast(ctx context.Context, s *data.Sample) error {
	if l.cfg.OrderPreserving {
		l.ordered.add(s)
		l.enqueued.Add(1)
		return nil
	}
	l.enqueued.Add(1)
	return l.fastQ.Put(ctx, s)
}

// batchConstructor assembles batches for GPU g: fast queue first, slow
// queue second, blocking on the wait fabric when neither has samples
// (Algorithm 1 lines 19–30). The delivery budget is split into fixed
// per-GPU shares — constructor g builds total/n batches, plus one when
// g < total%n — so every GPU gets its share whatever order the
// constructors run in. The shares sum to the budget, so together the
// constructors draw exactly the samples it emits and never strand the tail
// across two partial batches.
func (l *Loader) batchConstructor(ctx context.Context, g int) {
	out := l.batchQs[g]
	defer out.Close()
	total, n := l.spec.TotalBatches(), len(l.batchQs)
	share := total / n
	if g < total%n {
		share++
	}
	sel := simtime.NewSelector(l.env.RT)
	// Wake sources for an idle constructor, in priority order. The gate
	// carries accounting-only changes (faults, source exhaustion) that could
	// flip drained() without a queue operation.
	var sources []simtime.Source
	if l.cfg.OrderPreserving {
		sources = []simtime.Source{l.ordered, l.gate}
	} else {
		sources = []simtime.Source{l.fastQ, l.slowQ, l.gate}
	}
	for built := 0; built < share; built++ {
		if l.stopFlag.Load() {
			return
		}
		b, ok := l.assemble(ctx, g, sel, sources)
		if !ok {
			return
		}
		l.assembled.Add(1)
		if err := out.Put(ctx, b); err != nil {
			b.Release()
			return
		}
	}
}

// assemble gathers one full batch from the fast and slow queues (or the
// ordered buffer). Slow samples are drawn only when the fast queue is empty,
// preserving Algorithm 1's priority: the scan order below runs anew after
// every wakeup, whichever source fired.
func (l *Loader) assemble(ctx context.Context, g int, sel *simtime.Selector, sources []simtime.Source) (*data.Batch, bool) {
	asmStart := l.env.RT.Now()
	// The batch (and the backing array for its samples) comes from the
	// session pool; the consumer returns it with Batch.Release.
	b := l.env.Pool.GetBatch(l.spec.BatchSize)
	for len(b.Samples) < l.spec.BatchSize {
		if l.stopFlag.Load() {
			b.Release()
			return nil, false
		}
		var s *data.Sample
		if l.cfg.OrderPreserving {
			s = l.ordered.takeNext()
		} else if v, ok, _ := l.fastQ.TryGet(); ok {
			s = v
		} else if v, ok, _ := l.slowQ.TryGet(); ok {
			s = v
		}
		if s == nil {
			if l.drained() {
				// Abnormal deficit (upstream failure): give up on the
				// remaining partial batch rather than wait forever.
				b.Release()
				return nil, false
			}
			if _, err := sel.Select(ctx, 0, sources...); err != nil {
				b.Release()
				return nil, false
			}
			continue
		}
		l.consumed.Add(1)
		if l.srcDone.Load() && l.consumed.Load() == l.enqueued.Load() {
			// Possibly the final sample of the stream: peers parked on an
			// empty queue must re-check drained().
			l.gate.Pulse()
		}
		b.Samples = append(b.Samples, s)
	}
	b.Seq = l.batchSeq.Add(1) - 1
	b.CreatedAt = l.env.RT.Now()
	// §4.3: a CUDA prefetch stream moves batch i to GPU memory while
	// batch i−1 trains, so delivered batches are resident.
	b.Resident = true
	if l.env.Trace != nil {
		l.env.Trace.Record(trace.Span{Start: asmStart, End: b.CreatedAt,
			Stage: trace.StageAssemble, Tenant: l.env.TraceTenant(),
			Node: l.env.TraceNode, Key: int64(g), Seq: b.Seq,
			Detail: int64(len(b.Samples))})
	}
	return b, true
}

// drained reports that no more samples will ever arrive: the index stream
// ended and everything emitted has been consumed or is in a final queue
// that is empty.
func (l *Loader) drained() bool {
	if !l.srcDone.Load() {
		return false
	}
	if l.sched.liveWorkers() > 0 {
		// Workers may still be finishing in-flight samples.
		return l.enqueued.Load() == l.consumed.Load() && l.allQueuesEmpty() && l.workersIdle()
	}
	return l.enqueued.Load() == l.consumed.Load() && l.allQueuesEmpty()
}

func (l *Loader) allQueuesEmpty() bool {
	if l.cfg.OrderPreserving {
		return l.ordered.empty()
	}
	return l.fastQ.Len() == 0 && l.slowQ.Len() == 0 && l.tempQ.Len() == 0
}

func (l *Loader) workersIdle() bool {
	// All emitted samples accounted for — enqueued or abandoned — so none
	// is in flight inside a worker.
	return l.emitted.Load() == l.enqueued.Load()+l.abandoned.Load()
}

// Next implements loader.Loader: per-GPU batch queues (Algorithm 1 lines
// 31–37; queue Get already blocks, subsuming the sleep-poll loop).
func (l *Loader) Next(ctx context.Context, g int) (*data.Batch, error) {
	b, err := l.batchQs[g].Get(ctx)
	if err != nil {
		return nil, loader.EOFIfClosed(err)
	}
	if l.env.Trace != nil {
		// The batch's stay in the delivery queue, sealed to drawn.
		l.env.Trace.Record(trace.Span{Start: b.CreatedAt, End: l.env.RT.Now(),
			Stage: trace.StageQueueWait, Tenant: l.env.TraceTenant(),
			Node: l.env.TraceNode, Key: int64(g), Seq: b.Seq})
	}
	return b, nil
}

// Stop implements loader.Loader.
func (l *Loader) Stop() {
	l.stopOnce.Do(func() {
		l.stopFlag.Store(true)
		if l.cancel != nil {
			l.cancel()
		}
		l.idx.Out().Close()
		l.fastQ.Close()
		l.slowQ.Close()
		l.tempQ.Close()
		// Each parked slow sample carries an unsettled matcache leader claim
		// (leadFill defers settlement to finishSlow). No worker will resume
		// them now, so drain the queue and abort the claims — otherwise the
		// keys stay inflight in the cluster-shared cache and co-tenant or
		// later sessions park forever on a fill that will never complete. A
		// racing worker that wins an item instead settles it through
		// finishSlow's own Complete/Abort paths.
		for {
			item, ok, _ := l.tempQ.TryGet()
			if !ok {
				break
			}
			if l.mat != nil {
				l.mat.Abort(matcache.Key{Obj: item.s.Key, Sig: l.matSig})
			}
			l.env.Pool.Put(item.s)
		}
		for _, q := range l.batchQs {
			q.Close()
		}
		// Constructors parked on the ordered buffer (which has no close
		// event) re-check stopFlag on the gate pulse.
		l.gate.Pulse()
	})
}

// Timeout exposes the current classification timeout (diagnostics).
func (l *Loader) Timeout() time.Duration { return l.profiler.Timeout() }

// Workers exposes the live worker count (diagnostics).
func (l *Loader) Workers() int { return l.sched.liveWorkers() }

// PeakWorkers exposes the largest pool size reached (diagnostics).
func (l *Loader) PeakWorkers() int { return l.sched.peakWorkers() }

// RegisterMetrics implements loader.Instrumented.
func (l *Loader) RegisterMetrics(c *metrics.Collector) {
	c.Register("minato_workers", func() float64 { return float64(l.sched.liveWorkers()) })
	c.Register("minato_fastq", func() float64 { return float64(l.fastQ.Len()) })
	c.Register("minato_slowq", func() float64 { return float64(l.slowQ.Len()) })
	c.Register("minato_tempq", func() float64 { return float64(l.tempQ.Len()) })
	c.Register("minato_batchq", func() float64 {
		n := 0
		for _, q := range l.batchQs {
			n += q.Len()
		}
		return float64(n)
	})
	c.Register("minato_timeout_ms", func() float64 {
		t := l.profiler.Timeout()
		if t == math.MaxInt64 {
			return -1
		}
		return float64(t) / float64(time.Millisecond)
	})
}

// orderedBuffer supports the order-preserving mode (§6): completed samples
// are released strictly in sampler order. It is a wake source: consumers arm
// a selector on it and are woken when the next-in-order slot fills (or is
// abandoned), so the mode runs without polling. A nil map value is a
// tombstone for an abandoned draw; takeNext skips over tombstones so one
// faulty sample does not stall the order forever.
type orderedBuffer struct {
	mu      sync.Mutex
	pending map[int64]*data.Sample
	next    int64
	live    int // non-tombstone entries
	subs    []orderedSub
}

type orderedSub struct {
	sel *simtime.Selector
	idx int
}

func newOrderedBuffer() *orderedBuffer {
	return &orderedBuffer{pending: make(map[int64]*data.Sample)}
}

func (o *orderedBuffer) add(s *data.Sample) {
	o.mu.Lock()
	o.pending[s.OriginalOrder] = s
	o.live++
	if s.OriginalOrder == o.next {
		o.wakeOneLocked()
	}
	o.mu.Unlock()
}

// skip tombstones an abandoned draw so the order can advance past it.
func (o *orderedBuffer) skip(seq int64) {
	o.mu.Lock()
	if seq >= o.next {
		if _, ok := o.pending[seq]; !ok {
			o.pending[seq] = nil
			if seq == o.next {
				o.wakeOneLocked()
			}
		}
	}
	o.mu.Unlock()
}

// takeNext returns the next-in-order sample if ready, else nil. Tombstones
// in front are consumed along the way.
func (o *orderedBuffer) takeNext() *data.Sample {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		s, ok := o.pending[o.next]
		if !ok {
			return nil
		}
		delete(o.pending, o.next)
		o.next++
		if s == nil {
			continue // abandoned draw
		}
		o.live--
		if _, ok := o.pending[o.next]; ok {
			// Another consumer can proceed with the new front.
			o.wakeOneLocked()
		}
		return s
	}
}

func (o *orderedBuffer) empty() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.live == 0
}

// Arm implements simtime.Source: ready when the next-in-order slot exists
// (sample or tombstone — consumers re-scan either way).
func (o *orderedBuffer) Arm(sel *simtime.Selector, idx int) bool {
	o.mu.Lock()
	if _, ok := o.pending[o.next]; ok {
		o.mu.Unlock()
		sel.TryWake(idx)
		return true
	}
	o.subs = append(o.subs, orderedSub{sel: sel, idx: idx})
	o.mu.Unlock()
	return false
}

// Disarm implements simtime.Source.
func (o *orderedBuffer) Disarm(sel *simtime.Selector) {
	o.mu.Lock()
	for i, e := range o.subs {
		if e.sel == sel {
			o.subs = append(o.subs[:i], o.subs[i+1:]...)
			break
		}
	}
	o.mu.Unlock()
}

func (o *orderedBuffer) wakeOneLocked() {
	for len(o.subs) > 0 {
		e := o.subs[0]
		o.subs = o.subs[1:]
		if e.sel.TryWake(e.idx) {
			return
		}
	}
}

var _ simtime.Source = (*orderedBuffer)(nil)
