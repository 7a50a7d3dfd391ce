// Package metrics provides the periodic resource sampler behind the paper's
// usage figures (CPU%, GPU%, disk read rate, throughput over time). A
// Collector runs as a tracked task under the simtime runtime, sampling
// registered gauges at a fixed virtual-time interval — the analogue of the
// paper's nvidia-smi/dstat monitoring (§5.1).
package metrics

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/stats"
)

// Collector samples gauges periodically into time series.
type Collector struct {
	rt       *simtime.Virtual
	interval time.Duration

	mu     sync.Mutex
	gauges []gauge
	series map[string]*stats.TimeSeries

	stopped atomic.Bool
}

type gauge struct {
	name string
	fn   func() float64
}

// NewCollector returns a collector sampling every interval of virtual time.
func NewCollector(rt *simtime.Virtual, interval time.Duration) *Collector {
	return &Collector{rt: rt, interval: interval, series: make(map[string]*stats.TimeSeries)}
}

// Register adds a gauge. The function is called from the collector task
// only, so stateful window gauges (e.g. Device.UtilizationGauge) are safe.
// Registering after Stop returns an error: the sampling task has already
// exited, so the gauge would silently never be sampled.
func (c *Collector) Register(name string, fn func() float64) error {
	if c.stopped.Load() {
		return fmt.Errorf("metrics: Register(%q) after Stop: the sampling task has exited", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gauges = append(c.gauges, gauge{name: name, fn: fn})
	c.series[name] = &stats.TimeSeries{Name: name}
	return nil
}

// Start launches the sampling task in wg. The task exits at the first tick
// after Stop is called.
func (c *Collector) Start(wg *simtime.WaitGroup) {
	wg.Go("metrics-collector", func() {
		for {
			if c.stopped.Load() {
				return
			}
			if err := c.rt.Sleep(context.Background(), c.interval); err != nil {
				return
			}
			if c.stopped.Load() {
				return
			}
			c.sample()
		}
	})
}

func (c *Collector) sample() {
	now := c.rt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.gauges {
		c.series[g.name].Append(now, g.fn())
	}
}

// Stop ends sampling after the current tick.
func (c *Collector) Stop() { c.stopped.Store(true) }

// Series returns the recorded time series for a gauge name (nil if
// unknown). The returned series must not be mutated while sampling runs.
func (c *Collector) Series(name string) *stats.TimeSeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series[name]
}

// Names returns the registered gauge names.
func (c *Collector) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.gauges))
	for _, g := range c.gauges {
		out = append(out, g.name)
	}
	return out
}

// SeriesSnapshot is one gauge's recorded points, copied out of the
// collector.
type SeriesSnapshot struct {
	Name   string
	Points []stats.Point
}

// Snapshot copies every recorded series under a single lock acquisition,
// in registration order — a consistent cut across gauges, where repeated
// Series/Names calls could interleave with a sampling tick.
func (c *Collector) Snapshot() []SeriesSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(c.gauges))
	for _, g := range c.gauges {
		ts := c.series[g.name]
		pts := make([]stats.Point, len(ts.Points))
		copy(pts, ts.Points)
		out = append(out, SeriesSnapshot{Name: g.name, Points: pts})
	}
	return out
}

// CounterRateGauge builds a gauge reporting the rate of change of a
// monotonic counter (per second of virtual time) over the sampling window.
func CounterRateGauge(rt *simtime.Virtual, counter func() float64) func() float64 {
	last := counter()
	lastT := rt.Now()
	return func() float64 {
		cur := counter()
		now := rt.Now()
		dt := (now - lastT).Seconds()
		var r float64
		if dt > 0 {
			r = (cur - last) / dt
		}
		last, lastT = cur, now
		return r
	}
}
