// Package pytorch implements the PyTorch DataLoader baseline (§2.1,
// Fig 1a):
//
//   - the sampler predetermines a random index order and groups consecutive
//     indices into batches;
//   - batch tasks are dispatched round-robin to worker processes, each with
//     a bounded task queue, and the number of outstanding (dispatched but
//     not yet consumed) batches is capped at workers × prefetch_factor,
//     exactly like _tasks_outstanding in the real implementation;
//   - a worker loads and preprocesses the samples of its batch serially;
//   - completed batches are delivered strictly in order, so one slow sample
//     delays its batch, and a slow batch delays every batch behind it —
//     head-of-line blocking (§3.3).
package pytorch

import (
	"context"
	"sort"
	"sync"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/transform"
)

// Config holds the PyTorch DataLoader tuning knobs the paper sweeps.
type Config struct {
	// Workers is num_workers; the paper uses 12 (§5.1).
	Workers int
	// PrefetchFactor is batches prefetched per worker (default 2).
	PrefetchFactor int
	// ReorderPolicy optionally rearranges the pipeline per sample before
	// preprocessing; Pecan's AutoOrder plugs in here. Nil keeps Table 1
	// order. The policy must depend on the sample only through each
	// transform's volume classification (transform.Classify): results are
	// memoized per classification signature (transform.OrderCache), so the
	// policy runs once per distinct signature, not once per sample.
	ReorderPolicy func(ts []transform.Transform, s *data.Sample) []transform.Transform
	// LoaderName overrides the reported name (used by the pecan wrapper).
	LoaderName string
}

// DefaultConfig returns the paper's baseline configuration (§5.1).
func DefaultConfig() Config {
	return Config{Workers: 12, PrefetchFactor: 2}
}

type batchTask struct {
	seq   int64
	items []loader.IndexItem
}

// Loader is the PyTorch DataLoader baseline.
type Loader struct {
	env  *loader.Env
	spec loader.Spec
	cfg  Config

	idx      *loader.IndexSource
	workerQs []*queue.Queue[batchTask]
	// tokens caps outstanding batches (dispatched − consumed) at
	// workers × prefetch_factor; Next returns a token on consumption.
	tokens *queue.Queue[struct{}]
	out    *queue.Queue[*data.Batch]

	reorder    reorderBuffer
	orderCache transform.OrderCache
	stopOnce   sync.Once
	cancel     context.CancelFunc
}

// New returns a PyTorch DataLoader over the given spec.
func New(env *loader.Env, spec loader.Spec, cfg Config) *Loader {
	if cfg.Workers <= 0 {
		cfg.Workers = 12
	}
	if cfg.PrefetchFactor <= 0 {
		cfg.PrefetchFactor = 2
	}
	window := cfg.Workers * cfg.PrefetchFactor
	l := &Loader{
		env: env, spec: spec, cfg: cfg,
		idx:    loader.NewIndexSource(env, spec, 4*spec.BatchSize),
		tokens: queue.New[struct{}](env.RT, "pytorch-window", window),
		// The out queue only ever holds in-order ready batches; its
		// capacity never gates the pipeline (the token window does), so
		// the reorder flusher can always TryPut without parking.
		out: queue.New[*data.Batch](env.RT, "pytorch-out", spec.TotalBatches()+1),
	}
	l.reorder.pending = make(map[int64]*data.Batch)
	l.reorder.total = int64(spec.TotalBatches())
	l.reorder.out = l.out
	for w := 0; w < cfg.Workers; w++ {
		l.workerQs = append(l.workerQs,
			queue.New[batchTask](env.RT, "pytorch-tasks", cfg.PrefetchFactor))
	}
	return l
}

// Name implements loader.Loader.
func (l *Loader) Name() string {
	if l.cfg.LoaderName != "" {
		return l.cfg.LoaderName
	}
	return "pytorch"
}

// Start implements loader.Loader.
func (l *Loader) Start(ctx context.Context) error {
	ctx, l.cancel = simtime.WithCancel(l.env.RT, ctx)
	l.idx.Start(ctx)

	// Fill the dispatch window.
	for i := 0; i < l.tokens.Cap(); i++ {
		if _, err := l.tokens.TryPut(struct{}{}); err != nil {
			return err
		}
	}

	// Dispatcher: group the index stream into batch tasks, round-robin to
	// workers, gated by the outstanding-batch window.
	l.env.WG.Go("pytorch-dispatch", func() {
		defer func() {
			for _, wq := range l.workerQs {
				wq.Close()
			}
		}()
		var seq int64
		for {
			if _, err := l.tokens.Get(ctx); err != nil {
				return
			}
			items := make([]loader.IndexItem, 0, l.spec.BatchSize)
			for len(items) < l.spec.BatchSize {
				it, err := l.idx.Out().Get(ctx)
				if err != nil {
					return // index stream closed: drop partial batch (drop_last)
				}
				items = append(items, it)
			}
			wq := l.workerQs[seq%int64(len(l.workerQs))]
			if err := wq.Put(ctx, batchTask{seq: seq, items: items}); err != nil {
				return
			}
			seq++
		}
	})

	for w := 0; w < l.cfg.Workers; w++ {
		wq := l.workerQs[w]
		l.env.WG.Go("pytorch-worker", func() {
			for {
				task, err := wq.Get(ctx)
				if err != nil {
					return
				}
				b, err := l.prepare(ctx, task)
				if err != nil {
					return
				}
				l.reorder.deliver(b)
			}
		})
	}
	return nil
}

// prepare loads and preprocesses one batch serially — the per-worker loop
// of Fig 1a.
func (l *Loader) prepare(ctx context.Context, task batchTask) (*data.Batch, error) {
	b := l.env.Pool.GetBatch(len(task.items))
	for _, it := range task.items {
		s, err := loader.LoadSample(ctx, l.env, l.spec, it)
		if err != nil {
			b.Release()
			return nil, err
		}
		s.PreprocStart = l.env.RT.Now()
		p := l.spec.Pipeline
		if l.cfg.ReorderPolicy != nil {
			p = l.reordered(p, s)
		}
		if err := p.Apply(ctx, l.env.CPU, s); err != nil {
			l.env.Pool.Put(s)
			b.Release()
			return nil, err
		}
		s.PreprocEnd = l.env.RT.Now()
		b.Samples = append(b.Samples, s)
	}
	b.Seq, b.CreatedAt = task.seq, l.env.RT.Now()
	return b, nil
}

// reordered resolves the per-sample pipeline rearrangement through a cache
// keyed by the samples' classification signature, so the policy (and the
// pipeline construction behind it) runs once per distinct signature instead
// of once per sample.
func (l *Loader) reordered(p *transform.Pipeline, s *data.Sample) *transform.Pipeline {
	return l.orderCache.Reordered(p, s, l.cfg.ReorderPolicy)
}

// Next implements loader.Loader. All GPU consumers share the single
// in-order output queue (the paper's single-process multi-GPU setting).
func (l *Loader) Next(ctx context.Context, _ int) (*data.Batch, error) {
	b, err := l.out.Get(ctx)
	if err != nil {
		return nil, loader.EOFIfClosed(err)
	}
	// Consumption frees a slot in the dispatch window.
	_, _ = l.tokens.TryPut(struct{}{})
	return b, nil
}

// Stop implements loader.Loader.
func (l *Loader) Stop() {
	l.stopOnce.Do(func() {
		if l.cancel != nil {
			l.cancel()
		}
		l.idx.Out().Close()
		l.tokens.Close()
		for _, wq := range l.workerQs {
			wq.Close()
		}
		l.out.Close()
	})
}

// reorderBuffer delivers batches strictly by sequence number — the
// mechanism that turns one slow batch into a pipeline stall.
type reorderBuffer struct {
	mu      sync.Mutex
	pending map[int64]*data.Batch
	next    int64
	total   int64
	sent    int64
	out     *queue.Queue[*data.Batch]
}

// deliver inserts a completed batch and flushes every consecutive ready
// batch to the output queue. The output queue is sized so TryPut never
// fails while open; the flush therefore never parks while holding the lock.
func (r *reorderBuffer) deliver(b *data.Batch) {
	r.mu.Lock()
	r.pending[b.Seq] = b
	for {
		nb, ok := r.pending[r.next]
		if !ok {
			break
		}
		delete(r.pending, r.next)
		if ok, err := r.out.TryPut(nb); !ok || err != nil {
			r.mu.Unlock()
			nb.Release() // queue closed mid-shutdown: the batch is ours
			return
		}
		r.next++
		r.sent++
	}
	done := r.sent >= r.total
	r.mu.Unlock()
	if done {
		r.out.Close()
	}
}

// PendingSeqs returns the sequence numbers parked in the reorder buffer
// (diagnostics/tests).
func (l *Loader) PendingSeqs() []int64 {
	l.reorder.mu.Lock()
	defer l.reorder.mu.Unlock()
	out := make([]int64, 0, len(l.reorder.pending))
	for s := range l.reorder.pending {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
