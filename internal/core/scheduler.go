package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/stats"
)

// Scheduler implements the adaptive worker scheduler of §4.3:
//
//	Δ = α·(1 − Q/Qmax) + β·(C − θc)            (Formula 2)
//	workers = min(maxWorkers, max(1, workers + clip(Δ)))  (Formula 1)
//
// Q is a moving average of batch-queue occupancy, C is the utilization of
// the currently allocated workers, and Δ is clipped to a small integer
// range for stability. Empty queues and busy workers grow the pool (a CPU
// bottleneck); full queues and idle workers shrink it (over-provisioning).
type Scheduler struct {
	l   *Loader
	cfg Config

	target       atomic.Int64
	live         atomic.Int64
	peak         atomic.Int64
	retireTokens atomic.Int64

	qAvg *stats.EWMA

	lastBusy    float64
	lastTime    time.Duration
	lastCPUUtil float64
}

// NewScheduler returns a scheduler bound to a loader.
func NewScheduler(l *Loader, cfg Config) *Scheduler {
	return &Scheduler{l: l, cfg: cfg, qAvg: stats.NewEWMA(0.3)}
}

// SetTarget fixes the desired worker count (initialization and tests).
func (sc *Scheduler) SetTarget(n int) { sc.target.Store(int64(n)) }

// Target returns the current desired worker count.
func (sc *Scheduler) Target() int { return int(sc.target.Load()) }

// workerSpawned registers a new worker and returns its id.
func (sc *Scheduler) workerSpawned() int {
	n := sc.live.Add(1)
	for {
		p := sc.peak.Load()
		if n <= p || sc.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return int(n)
}

// peakWorkers returns the pool's high-water mark.
func (sc *Scheduler) peakWorkers() int { return int(sc.peak.Load()) }

// workerExited deregisters a worker.
func (sc *Scheduler) workerExited() { sc.live.Add(-1) }

// liveWorkers returns the current pool size.
func (sc *Scheduler) liveWorkers() int { return int(sc.live.Load()) }

// shouldRetire lets one worker claim an outstanding retirement token.
func (sc *Scheduler) shouldRetire(_ int) bool {
	for {
		t := sc.retireTokens.Load()
		if t <= 0 {
			return false
		}
		if sc.retireTokens.CompareAndSwap(t, t-1) {
			return true
		}
	}
}

// Start launches the scheduling loop.
func (sc *Scheduler) Start(ctx context.Context) {
	sc.lastBusy = sc.l.env.CPU.BusySeconds()
	sc.lastTime = sc.l.env.RT.Now()
	sc.l.env.WG.Go("minato-scheduler", func() {
		// Park on a selector armed on the loader's gate, with the tick
		// interval as the deadline, rather than a plain Sleep: Stop pulses
		// the gate, and a gate wake reaches the kernel synchronously. A
		// context cancel would leave this task's interval timer live until
		// the cancellation propagates, and an otherwise-idle kernel can
		// advance the clock to that deadline in the window — a wall-clock
		// race in what must be a deterministic schedule.
		sel := simtime.NewSelector(sc.l.env.RT)
		for {
			if sc.l.stopFlag.Load() {
				return
			}
			next := sc.l.env.RT.Now() + sc.cfg.SchedInterval
			for {
				park := next - sc.l.env.RT.Now()
				if park <= 0 {
					break
				}
				idx, err := sel.Select(ctx, park, sc.l.gate)
				if err != nil {
					return
				}
				if sc.l.stopFlag.Load() || sc.l.srcDone.Load() {
					return
				}
				if idx == simtime.Expired {
					break
				}
			}
			sc.tick(ctx)
		}
	})
}

// tick performs one scheduling decision.
func (sc *Scheduler) tick(ctx context.Context) {
	// Q: moving average of total batch-queue occupancy.
	qLen := 0
	qMax := 0
	for _, q := range sc.l.batchQs {
		qLen += q.Len()
		qMax += q.Cap()
	}
	qAvg := sc.qAvg.Update(float64(qLen))
	qFrac := qAvg / float64(qMax)

	// C: utilization of the allocated workers over the last interval.
	now := sc.l.env.RT.Now()
	busy := sc.l.env.CPU.BusySeconds()
	dt := (now - sc.lastTime).Seconds()
	live := float64(sc.liveWorkers())
	c := sc.lastCPUUtil
	if dt > 0 && live > 0 {
		c = (busy - sc.lastBusy) / (dt * live)
		if c > 1 {
			c = 1
		}
		if c < 0 {
			c = 0
		}
	}
	sc.lastBusy, sc.lastTime, sc.lastCPUUtil = busy, now, c

	delta := sc.cfg.Alpha*(1-qFrac) + sc.cfg.Beta*(c-sc.cfg.CPUThreshold)
	d := int(math.Round(delta))
	if d > sc.cfg.DeltaClip {
		d = sc.cfg.DeltaClip
	}
	if d < -sc.cfg.DeltaClip {
		d = -sc.cfg.DeltaClip
	}
	sc.apply(ctx, d)
}

// apply adjusts the pool toward workers+delta within [1, maxWorkersNow].
// The upper bound is re-read each call: when a cluster governor shrinks this
// tenant's quota (a new tenant joined), the pool retires down to the new
// bound even on a zero delta.
func (sc *Scheduler) apply(ctx context.Context, delta int) {
	cur := sc.Target()
	next := cur + delta
	if next < 1 {
		next = 1
	}
	if max := sc.l.maxWorkersNow(); next > max {
		next = max
	}
	if next == cur {
		return
	}
	sc.SetTarget(next)
	if next > cur {
		// Absorb pending retirements first, then spawn the remainder.
		grow := next - cur
		for grow > 0 {
			t := sc.retireTokens.Load()
			if t <= 0 {
				break
			}
			if sc.retireTokens.CompareAndSwap(t, t-1) {
				grow--
			}
		}
		for i := 0; i < grow; i++ {
			sc.l.spawnWorker(ctx)
		}
		return
	}
	sc.retireTokens.Add(int64(cur - next))
}
