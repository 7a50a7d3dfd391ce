// Package dali implements the NVIDIA DALI baseline (§2.1, §3.5): raw data
// is loaded from storage on the CPU, but all preprocessing transforms
// execute on the GPU as kernels roughly 10× faster than their CPU
// counterparts (the paper's own calibration, §5.1). Preprocessing and
// training share each GPU's compute, so aggressive preprocessing interferes
// with training — Takeaway 5.
//
// The pipeline per GPU is:
//
//	reader (CPU, parallel I/O) → raw-batch queue (prefetch_queue_depth)
//	→ GPU preprocessing task → ready queue (prefetch_queue_depth) → Next
//
// exec_pipelined/exec_async correspond to the buffered queues and the
// asynchronous GPU preprocessing task. Buffered batches reserve GPU memory,
// so deeper prefetch queues raise memory pressure (§3.4).
package dali

import (
	"context"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/transform"
)

// Config holds DALI's tuning knobs.
type Config struct {
	// QueueDepth is prefetch_queue_depth (default 2, §5.1).
	QueueDepth int
	// Speedup is the GPU-vs-CPU transform speed ratio (default 10, §5.1).
	Speedup float64
	// IOParallelism bounds concurrent sample loads per raw batch.
	IOParallelism int
}

// DefaultConfig matches the paper's setup.
func DefaultConfig() Config {
	return Config{QueueDepth: 2, Speedup: 10, IOParallelism: 16}
}

// Loader is the DALI baseline.
type Loader struct {
	env  *loader.Env
	spec loader.Spec
	cfg  Config

	idx      *loader.IndexSource
	rawQs    []*queue.Queue[*data.Batch]
	readyQs  []*queue.Queue[*data.Batch]
	ioTasks  *queue.Queue[ioTask]
	ioDone   *queue.Queue[ioResult]
	counter  *loader.DeliveryCounter
	stopOnce sync.Once
	cancel   context.CancelFunc
}

// ioTask is one sample load dispatched to the persistent IO worker pool.
type ioTask struct {
	item loader.IndexItem
	slot int
}

// ioResult reports a completed load back to the reader.
type ioResult struct {
	s    *data.Sample
	slot int
	err  error
}

// New returns a DALI loader over the given spec.
func New(env *loader.Env, spec loader.Spec, cfg Config) *Loader {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 10
	}
	if cfg.IOParallelism <= 0 {
		cfg.IOParallelism = 16
	}
	l := &Loader{
		env: env, spec: spec, cfg: cfg,
		idx:     loader.NewIndexSource(env, spec, 4*spec.BatchSize),
		ioTasks: queue.New[ioTask](env.RT, "dali-iotasks", cfg.IOParallelism),
		ioDone:  queue.New[ioResult](env.RT, "dali-iodone", spec.BatchSize),
		counter: loader.NewDeliveryCounter(spec.TotalBatches()),
	}
	for g := range env.GPUs {
		l.rawQs = append(l.rawQs,
			queue.New[*data.Batch](env.RT, "dali-raw", cfg.QueueDepth))
		l.readyQs = append(l.readyQs,
			queue.New[*data.Batch](env.RT, "dali-ready", cfg.QueueDepth))
		_ = g
	}
	return l
}

// Name implements loader.Loader.
func (l *Loader) Name() string { return "dali" }

// Start implements loader.Loader.
func (l *Loader) Start(ctx context.Context) error {
	ctx, l.cancel = simtime.WithCancel(l.env.RT, ctx)
	l.idx.Start(ctx)

	// Persistent IO pool: IOParallelism workers bound concurrent loads.
	for w := 0; w < l.cfg.IOParallelism; w++ {
		l.env.WG.Go("dali-io", func() {
			l.ioWorker(ctx)
		})
	}

	// Reader: assemble raw batches in order, loading samples with bounded
	// parallel I/O, and hand them to GPU pipelines round-robin.
	l.env.WG.Go("dali-reader", func() {
		defer func() {
			l.ioTasks.Close()
			for _, q := range l.rawQs {
				q.Close()
			}
		}()
		var seq int64
		for {
			items := make([]loader.IndexItem, 0, l.spec.BatchSize)
			for len(items) < l.spec.BatchSize {
				it, err := l.idx.Out().Get(ctx)
				if err != nil {
					return
				}
				items = append(items, it)
			}
			b, err := l.loadRaw(ctx, seq, items)
			if err != nil {
				return
			}
			if err := l.rawQs[seq%int64(len(l.rawQs))].Put(ctx, b); err != nil {
				return
			}
			seq++
		}
	})

	// One GPU preprocessing pipeline per device (exec_async).
	for g := range l.env.GPUs {
		g := g
		l.env.WG.Go("dali-gpu-pipe", func() {
			l.gpuPipe(ctx, g)
		})
	}
	return nil
}

// ioWorker is one slot of the persistent IO pool: it loads samples for the
// reader until the task queue closes. A fixed pool of IOParallelism workers
// bounds concurrent loads exactly like the per-batch semaphore it replaced,
// without spawning a goroutine (and a semaphore queue) per sample.
func (l *Loader) ioWorker(ctx context.Context) {
	for {
		t, err := l.ioTasks.Get(ctx)
		if err != nil {
			return
		}
		s, err := loader.LoadSample(ctx, l.env, l.spec, t.item)
		if err == nil {
			// Host-side ingest (decode headers, pin buffers): small CPU
			// cost so DALI shows the paper's light CPU footprint.
			ingest := time.Millisecond +
				time.Duration(float64(s.RawBytes)/(1<<20)*0.2*float64(time.Millisecond))
			err = l.env.CPU.Run(ctx, ingest)
			if err != nil {
				l.env.Pool.Put(s)
				s = nil
			}
		}
		if perr := l.ioDone.Put(context.Background(), ioResult{s: s, slot: t.slot, err: err}); perr != nil {
			l.env.Pool.Put(s)
			return
		}
	}
}

// loadRaw loads a batch's samples through the IO worker pool. The returned
// batch still holds raw (untransformed) samples.
func (l *Loader) loadRaw(ctx context.Context, seq int64, items []loader.IndexItem) (*data.Batch, error) {
	b := l.env.Pool.GetBatch(len(items))
	b.Samples = b.Samples[:len(items)]
	dispatched := 0
	var firstErr error
	for i, it := range items {
		if err := l.ioTasks.Put(ctx, ioTask{item: it, slot: i}); err != nil {
			firstErr = err
			break
		}
		dispatched++
	}
	for n := 0; n < dispatched; n++ {
		r, err := l.ioDone.Get(ctx)
		if err != nil {
			// Shutdown: results for in-flight tasks are unrecoverable here;
			// the pool instances are reclaimed by GC with the session.
			b.Release()
			return nil, err
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		b.Samples[r.slot] = r.s
	}
	if firstErr != nil {
		b.Release()
		return nil, firstErr
	}
	b.Seq, b.CreatedAt = seq, l.env.RT.Now()
	return b, nil
}

// gpuPipe preprocesses raw batches on GPU g and buffers ready batches.
func (l *Loader) gpuPipe(ctx context.Context, g int) {
	dev := l.env.GPUs[g]
	exec := transform.ScaledExecutor{Exec: gpu.Executor{G: dev}, Speedup: l.cfg.Speedup}
	defer l.readyQs[g].Close()
	for {
		b, err := l.rawQs[g].Get(ctx)
		if err != nil {
			return
		}
		for _, s := range b.Samples {
			s.PreprocStart = l.env.RT.Now()
			if err := l.spec.Pipeline.Apply(ctx, exec, s); err != nil {
				b.Release()
				return
			}
			s.PreprocEnd = l.env.RT.Now()
		}
		// Buffered ready batches live in GPU memory until consumed.
		if err := dev.Reserve(b.Bytes()); err != nil {
			// Memory pressure: DALI raises OOM in the real system (§3.4).
			// Our harness surfaces it as a stopped pipeline.
			b.Release()
			return
		}
		b.Resident = true
		b.CreatedAt = l.env.RT.Now()
		if err := l.readyQs[g].Put(ctx, b); err != nil {
			dev.Release(b.Bytes())
			b.Release()
			return
		}
	}
}

// Next implements loader.Loader: per-GPU ready queues.
func (l *Loader) Next(ctx context.Context, g int) (*data.Batch, error) {
	b, err := l.readyQs[g].Get(ctx)
	if err != nil {
		return nil, loader.EOFIfClosed(err)
	}
	l.env.GPUs[g].Release(b.Bytes())
	if l.counter.Deliver() {
		l.Stop()
	}
	return b, nil
}

// Stop implements loader.Loader.
func (l *Loader) Stop() {
	l.stopOnce.Do(func() {
		if l.cancel != nil {
			l.cancel()
		}
		l.idx.Out().Close()
		l.ioTasks.Close()
		l.ioDone.Close()
		for _, q := range l.rawQs {
			q.Close()
		}
		for _, q := range l.readyQs {
			q.Close()
		}
	})
}
