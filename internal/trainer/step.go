package trainer

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/gpu"
	"github.com/minatoloader/minato/internal/loader"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
	"github.com/minatoloader/minato/internal/workload"
)

// copyBandwidth is the host-to-device PCIe bandwidth (bytes/s) a consumer
// pays for batches the loader did not leave Resident on the GPU.
const copyBandwidth = 16e9

// Step is the per-GPU consumer step of every training run, on one machine
// or many — the paper's model of training. Each round runs: preemption
// gate → Next → data wait → H2D copy unless Resident → GPU step → spans
// and counters → Sync → round end → epoch-end validation. A single machine
// leaves Sync nil; a multi-node job plugs its barriers and all-reduce in
// there. One Step serves all consumers of a machine: Run once per GPU.
type Step struct {
	RT   *simtime.Virtual
	W    workload.Workload
	GPUs []*gpu.GPU
	// PerEpoch is each consumer's batches per epoch: with a
	// W.ValidationTime, a consumer validates every PerEpoch trained rounds,
	// extra GPU work while loading pauses (the periodic dips of Fig 10).
	PerEpoch int
	// Source names the loader a round draws from. A nil loader makes the
	// round a proxy that only syncs (a crashed node); done ends the loop.
	Source func() (ld loader.Loader, done bool)
	// Chaos gates each round on preemption; nil never pauses.
	Chaos *ChaosState
	// Sync runs after the GPU step and before the round's end is stamped;
	// nil on a single machine.
	Sync func(ctx context.Context, g int, round int64, trained bool) error
	// OnBatch sees each trained batch before its release: it is the Step's
	// batch count so far, end the GPU step's end.
	OnBatch func(g int, it int64, b *data.Batch, end time.Duration)

	// Step spans carry (Tenant, Node, Key=GPU, Seq): the batch's Seq, or
	// the consumer's round with SeqByRound.
	Trace        *trace.Recorder
	Tenant, Node int32
	SeqByRound   bool

	Batches, Samples, Bytes, DataStall atomic.Int64
	end                                atomic.Int64
}

// End is the latest round end; validation after the last round is outside
// it.
func (s *Step) End() time.Duration { return time.Duration(s.end.Load()) }

// Run is consumer g's loop. It returns nil when Source reports done,
// io.EOF when the loader runs dry, and otherwise the error that ended it.
func (s *Step) Run(ctx context.Context, g int) error {
	sinceValidation := 0
	for round := int64(0); ; round++ {
		if err := s.Chaos.Gate(ctx); err != nil {
			return err
		}
		ld, done := s.Source()
		if done {
			return nil
		}
		if ld != nil {
			if err := s.train(ctx, ld, g, round); err != nil {
				return err
			}
		}
		if s.Sync != nil {
			if err := s.Sync(ctx, g, round, ld != nil); err != nil {
				return err
			}
		}
		storeMax(&s.end, int64(s.RT.Now()))
		if ld != nil && s.W.ValidationTime > 0 && s.PerEpoch > 0 {
			if sinceValidation++; sinceValidation == s.PerEpoch {
				sinceValidation = 0
				if err := s.GPUs[g].Train(ctx, s.W.ValidationTime); err != nil {
					return err
				}
			}
		}
	}
}

func (s *Step) train(ctx context.Context, ld loader.Loader, g int, round int64) error {
	t0 := s.RT.Now()
	b, err := ld.Next(ctx, g)
	if err != nil {
		return err
	}
	t := s.RT.Now()
	s.DataStall.Add(int64(t - t0))
	span := trace.Span{Tenant: s.Tenant, Node: s.Node, Key: int64(g), Seq: b.Seq}
	if s.SeqByRound {
		span.Seq = round
	}
	s.record(span, trace.StageDataWait, t0, t)
	if !b.Resident {
		// Synchronous H2D copy (no prefetch overlap).
		if err := s.RT.Sleep(ctx, time.Duration(float64(b.Bytes())/copyBandwidth*float64(time.Second))); err != nil {
			return err
		}
		cp := span
		cp.Detail = b.Bytes()
		t0, t = t, s.RT.Now()
		s.record(cp, trace.StageCopy, t0, t)
	}
	if err := s.GPUs[g].Train(ctx, s.W.GPUStep); err != nil {
		return err
	}
	end := s.RT.Now()
	s.record(span, trace.StageGPUStep, t, end)
	it := s.Batches.Add(1)
	s.Samples.Add(int64(len(b.Samples)))
	s.Bytes.Add(b.Bytes())
	if s.OnBatch != nil {
		s.OnBatch(g, it, b, end)
	}
	// The consumer owns the batch from Next to here; OnBatch copies values
	// out, so the samples can go back to the pool for upcoming draws.
	b.Release()
	return nil
}

func (s *Step) record(span trace.Span, st trace.Stage, start, end time.Duration) {
	span.Stage, span.Start, span.End = st, start, end
	s.Trace.Record(span)
}

func storeMax(dst *atomic.Int64, v int64) {
	for {
		cur := dst.Load()
		if v <= cur || dst.CompareAndSwap(cur, v) {
			return
		}
	}
}
