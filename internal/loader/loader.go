// Package loader defines the vocabulary shared by every data loader in this
// repository: the Loader interface the trainer consumes batches through, the
// Spec describing what to load, the Env bundling substrate handles, and the
// shuffled index source all loaders draw sample indices from.
package loader

import (
	"context"
	"errors"
	"io"
	"sync/atomic"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/dataset"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/dist"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/matcache"
	"github.com/minatoloader/minato/internal/metrics"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/storage"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/transform"
)

// Loader is the interface every data loader implements. Start launches the
// loader's background tasks; Next returns preprocessed batches for a given
// GPU consumer; Stop initiates shutdown (loaders also stop on their own
// after delivering their budget).
type Loader interface {
	// Name identifies the loader in reports ("pytorch", "dali", "pecan",
	// "minato").
	Name() string
	// Start launches background tasks into the loader's Env.WG group.
	Start(ctx context.Context) error
	// Next returns the next batch for GPU consumer g, or io.EOF after the
	// configured budget has been delivered.
	Next(ctx context.Context, g int) (*data.Batch, error)
	// Stop requests shutdown; pending work is abandoned. Safe to call more
	// than once, and after natural end-of-data.
	Stop()
}

// Instrumented is optionally implemented by loaders exposing internal
// gauges (queue occupancy, worker counts) to the metrics collector.
type Instrumented interface {
	RegisterMetrics(c *metrics.Collector)
}

// Spec describes the data a loader serves.
type Spec struct {
	Dataset   dataset.Dataset
	Pipeline  *transform.Pipeline
	BatchSize int
	// Epochs and Iterations bound the run: if Iterations > 0 it wins,
	// wrapping epochs as needed (Table 3 uses 1000 iterations for obj-det
	// and speech, 50 epochs for img-seg).
	Epochs     int
	Iterations int
	Seed       uint64
	// Skip fast-forwards the run past its first Skip batches: the index
	// source drops that many batches' worth of draws — preserving true
	// epoch numbering, shuffle order, and global sequence — and the
	// delivery budget shrinks to the remainder. This is the restore half
	// of checkpoint/resume: a resumed session consumes exactly the draws
	// its predecessor never delivered.
	Skip int
}

// BatchesPerEpoch returns the number of full batches per epoch (drop-last
// semantics, matching PyTorch's drop_last=True).
func (s Spec) BatchesPerEpoch() int {
	return s.Dataset.Len() / s.BatchSize
}

// TotalBatches returns the delivery budget: the configured bound minus the
// batches a Skip fast-forwards past.
func (s Spec) TotalBatches() int {
	total := s.Iterations
	if total <= 0 {
		e := s.Epochs
		if e <= 0 {
			e = 1
		}
		total = e * s.BatchesPerEpoch()
	}
	total -= s.Skip
	if total < 0 {
		total = 0
	}
	return total
}

// TotalSamples returns the number of sample draws the index source emits.
func (s Spec) TotalSamples() int { return s.TotalBatches() * s.BatchSize }

// Env bundles the simulated hardware a loader runs on.
type Env struct {
	RT    *simtime.Virtual
	CPU   *device.Device
	GPUs  []*gpu.GPU
	Store *storage.Store
	// WG tracks loader tasks; sessions wait on it during teardown.
	WG *simtime.WaitGroup
	// Pool recycles samples and batches through the data path (see
	// data.Pool). A nil pool degrades to plain allocation, so hand-built
	// environments keep working; sessions and the trainer always set one.
	Pool *data.Pool
	// Gov, when set, bounds the loader's preprocessing-worker pool from
	// outside — the hook multi-tenant clusters use to arbitrate CPU workers
	// fairly across co-located loaders. A nil governor leaves the loader's
	// own MaxWorkers as the only bound.
	Gov WorkerGovernor
	// Mat, when set, is the cluster's materialized preprocessed-sample
	// cache: loaders that support it (MinatoLoader) check it before
	// dispatching a sample to the pipeline and materialize their outputs
	// into it, so repeat epochs and co-tenant sessions skip preprocessing
	// entirely. Nil disables the warm path.
	Mat *matcache.Cache
	// Trace, when set, records deterministic spans from every layer the
	// loader touches (storage reads, cache fills, worker transforms, queue
	// waits, consumer steps). Nil disables recording: every call is a
	// nil-check no-op, so the hot path stays allocation-free.
	Trace *trace.Recorder
	// TraceNode stamps recorded spans with the owning rank in a multi-node
	// run (0 on a single machine).
	TraceNode int32
}

// TraceTenant returns the tenant id spans from this environment carry: the
// store's registered tenant on a shared substrate, 0 otherwise.
func (e *Env) TraceTenant() int32 {
	if e.Store != nil {
		return int32(e.Store.Tenant)
	}
	return 0
}

// ErrStopped is returned by Next when the loader was stopped before the
// delivery budget completed.
var ErrStopped = errors.New("loader: stopped")

// EOFIfClosed converts a queue-closed error into io.EOF, the contract of
// Loader.Next.
func EOFIfClosed(err error) error {
	if errors.Is(err, queue.ErrClosed) {
		return io.EOF
	}
	return err
}

// IndexItem is one sample draw from the shuffled index stream.
type IndexItem struct {
	Epoch int
	Index int
	Seq   int64 // global draw order
}

// IndexSource emits dataset indices in reshuffled epoch order, exactly
// TotalSamples of them, then closes the output queue. Like the PyTorch
// sampler, indices are drawn in a predetermined random order (§2.1); what
// loaders do with that order is where they differ.
type IndexSource struct {
	Spec Spec
	out  *queue.Queue[IndexItem]
	env  *Env
}

// NewIndexSource returns an index source writing into a queue of the given
// capacity.
func NewIndexSource(env *Env, spec Spec, capacity int) *IndexSource {
	return &IndexSource{
		Spec: spec,
		out:  queue.New[IndexItem](env.RT, "index", capacity),
		env:  env,
	}
}

// Out returns the index queue.
func (is *IndexSource) Out() *queue.Queue[IndexItem] { return is.out }

// Ready exposes the index stream as a wake source for event-driven
// consumers: it fires when an index item is available or the stream has
// closed. Loaders arm a simtime.Selector on it (together with their other
// queues) instead of sleep-polling TryGet.
func (is *IndexSource) Ready() simtime.Source { return is.out }

// Start launches the generator task.
func (is *IndexSource) Start(ctx context.Context) {
	is.env.WG.Go("index-source", func() {
		defer is.out.Close()
		// Skip fast-forwards through the leading draws without emitting
		// them: epoch numbering, shuffle order, and Seq stay those of the
		// uninterrupted run, so a resumed session is indistinguishable
		// downstream from one that delivered the skipped prefix itself.
		skip := int64(is.Spec.Skip) * int64(is.Spec.BatchSize)
		total := int64(is.Spec.TotalSamples()) + skip
		perEpoch := is.Spec.BatchesPerEpoch() * is.Spec.BatchSize
		var seq int64
		for epoch := 0; seq < total; epoch++ {
			// Cached + read-only: every loader of a comparison run draws the
			// same epoch orders, so the shuffles are shared process-wide.
			perm := dist.PermutationCached(is.Spec.Seed, uint64(epoch)+1000, is.Spec.Dataset.Len())
			for i := 0; i < perEpoch && seq < total; i++ {
				if seq >= skip {
					item := IndexItem{Epoch: epoch, Index: perm[i], Seq: seq}
					if err := is.out.Put(ctx, item); err != nil {
						return
					}
				}
				seq++
			}
		}
	})
}

// FillSample draws a pooled sample and fills its descriptor for an index
// item, without paying the storage read — the front half of LoadSample,
// used by cache fast paths that may skip the read entirely. The caller owns
// the returned sample.
func FillSample(env *Env, spec Spec, it IndexItem) *data.Sample {
	s := env.Pool.Get()
	dataset.Fill(spec.Dataset, it.Epoch, it.Index, s)
	s.OriginalOrder = it.Seq
	return s
}

// LoadSample materializes, reads, and stamps a sample for an index item.
// The sample instance is drawn from the environment's pool; the caller owns
// it and must hand it onward (into a batch) or release it back with
// env.Pool.Put. On error no sample is retained.
func LoadSample(ctx context.Context, env *Env, spec Spec, it IndexItem) (*data.Sample, error) {
	s := FillSample(env, spec, it)
	if err := env.Store.ReadSample(ctx, env.RT, s); err != nil {
		env.Pool.Put(s)
		return nil, err
	}
	return s, nil
}

// DeliveryCounter tracks how many batches have been delivered and closes
// over the budget, shared by loader implementations.
type DeliveryCounter struct {
	delivered atomic.Int64
	budget    int64
}

// NewDeliveryCounter returns a counter with the given budget.
func NewDeliveryCounter(budget int) *DeliveryCounter {
	return &DeliveryCounter{budget: int64(budget)}
}

// Deliver increments and reports whether this delivery completed the budget.
func (d *DeliveryCounter) Deliver() (done bool) {
	return d.delivered.Add(1) >= d.budget
}

// Delivered returns the count so far.
func (d *DeliveryCounter) Delivered() int64 { return d.delivered.Load() }

// Budget returns the total budget.
func (d *DeliveryCounter) Budget() int64 { return d.budget }
