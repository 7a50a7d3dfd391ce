package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/minatoloader/minato"
)

// metric is one named measurement. Simulated values keep full precision:
// text renders a duration in exact nanoseconds and a float with %.17g.
type metric struct {
	name  string
	unit  string
	value float64
	text  string
	count int64 // number of samples behind a quantile; 0 when not one
}

func durMetric(name, unit string, d time.Duration) metric {
	v := d.Seconds()
	if unit == "ms" {
		v = float64(d) / float64(time.Millisecond)
	}
	return metric{name: name, unit: unit, value: v, text: strconv.FormatInt(int64(d), 10) + " ns"}
}

func floatMetric(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, value: v, text: fullFloat(v)}
}

func fullFloat(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }

func countMetric(name string, n int64) metric {
	return metric{name: name, unit: "count", value: float64(n), text: strconv.FormatInt(n, 10)}
}

func (m metric) counted(n int64) metric {
	m.count = n
	return m
}

// pass is the outcome of running a workload once.
type pass struct {
	wall     time.Duration
	steal    time.Duration // CPU time the hypervisor took from the machine's CPUs
	samples  int64
	ops      int
	failures []string // one entry per failed operation
	sim      []metric // simulated end-to-end values
	layers   []metric // per-layer counters and, on traced passes, the trace split
	spans    int64    // spans recorded on a traced pass
	fp       uint64   // determinism fingerprint
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *pass) addSim(ms ...metric)    { p.sim = append(p.sim, ms...) }
func (p *pass) addLayers(ms ...metric) { p.layers = append(p.layers, ms...) }

// fingerprint hashes a result bit for bit: every float by its bits and
// every duration in nanoseconds, so any drift between repetitions shows.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) add(vals ...any) *fingerprint {
	var b [8]byte
	for _, v := range vals {
		var u uint64
		switch x := v.(type) {
		case int:
			u = uint64(x)
		case int64:
			u = uint64(x)
		case time.Duration:
			u = uint64(x)
		case float64:
			u = math.Float64bits(x)
		case string:
			f.h.Write([]byte(x))
			continue
		default:
			panic(fmt.Sprintf("fingerprint: unsupported %T", v))
		}
		binary.LittleEndian.PutUint64(b[:], u)
		f.h.Write(b[:])
	}
	return f
}

// report covers every scalar of a single-machine training report.
func (f *fingerprint) report(r *minato.Report) *fingerprint {
	f.add(r.Workload, r.Loader, r.GPUs, r.TrainTime, r.Batches, r.Samples, r.TrainedBytes,
		r.AvgGPUUtil, r.AvgCPUUtil, r.SlowThreshold, r.DiskBytes, r.PreemptStall)
	c, m := r.CacheStats, r.MatCacheStats
	f.add(c.Capacity, c.Used, c.Hits, c.Misses, c.Evictions)
	f.add(m.Capacity, m.Used, m.Entries, m.Hits, m.Misses, m.Fills, m.Evictions, m.Invalidations, m.Saved)
	return f.add(r.DataStall, r.BarrierStall, r.NetworkStall, r.StepP50, r.StepP99, len(r.Faults))
}

// multiNode covers a multi-node report, per-node stats included.
func (f *fingerprint) multiNode(r *minato.MultiNodeReport) *fingerprint {
	f.add(r.Workload, r.Loader, r.Nodes, r.TrainTime, r.Steps, r.Samples, r.AvgGPUUtil, r.NetworkBytes,
		r.DataStall, r.BarrierStall, r.NetworkStall, r.StepP50, r.StepP99, len(r.Faults))
	for _, n := range r.PerNode {
		f.add(n.Node, n.Hardware, n.GPUs, n.Samples, n.DataStall, n.BarrierStall, n.NetworkStall,
			n.Downtime, n.GPUUtil)
	}
	return f
}

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }

// traceLayers derives the simulated-time split and the span-counted layer
// counters from a traced run: critical-path attribution for the consumer
// step, and span totals by stage for the layers behind it.
func traceLayers(sink *minato.TraceSink) []metric {
	a := sink.Attribute(nil)
	var busy [4]time.Duration // queue wait, transform, device, matcache wait
	var n struct{ disk, remote, hit, fill, wait, flows, rates, frames int64 }
	var diskBytes int64
	for _, s := range sink.Spans() {
		d := s.End - s.Start
		switch s.Stage {
		case minato.TraceStageQueueWait:
			busy[0] += d
		case minato.TraceStageTransform:
			busy[1] += d
		case minato.TraceStageDeviceRun:
			busy[2] += d
		case minato.TraceStageMatWait:
			busy[3] += d
		case minato.TraceStageDiskRead:
			n.disk++
			diskBytes += s.Detail
		case minato.TraceStageRemoteFetch:
			n.remote++
		case minato.TraceStageCacheHit:
			n.hit++
		case minato.TraceStageCacheFill:
			n.fill++
		case minato.TraceStageCacheWait:
			n.wait++
		case minato.TraceStageFlow:
			n.flows++
		case minato.TraceStageFlowRate:
			n.rates++
		case minato.TraceStageFrame:
			n.frames++
		}
	}
	hitPct := 0.0
	if lookups := n.hit + n.fill + n.wait; lookups > 0 {
		hitPct = 100 * float64(n.hit) / float64(lookups)
	}
	return []metric{
		durMetric("trainer.data_wait_s", "s", a.DataWait),
		durMetric("trainer.copy_s", "s", a.Copy),
		durMetric("trainer.gpu_step_s", "s", a.GPUStep),
		durMetric("distributed.barrier_wait_s", "s", a.BarrierWait),
		durMetric("distributed.network_wait_s", "s", a.NetworkWait),
		durMetric("queue.wait_s", "s", busy[0]),
		durMetric("transform.busy_s", "s", busy[1]),
		durMetric("device.busy_s", "s", busy[2]),
		durMetric("matcache.wait_s", "s", busy[3]),
		countMetric("storage.disk_reads", n.disk),
		floatMetric("storage.disk_mb", "MB", float64(diskBytes)/1e6),
		countMetric("storage.remote_fetches", n.remote),
		floatMetric("storage.pagecache_hit_pct", "%", hitPct),
		countMetric("netsim.flows", n.flows),
		countMetric("netsim.rate_changes", n.rates),
		countMetric("service.frames", n.frames),
	}
}

// quantileDur returns the q-quantile of ds by the nearest-rank method.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median returns the median of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// foldMetrics folds per-pass metric lists into one list, in first-seen
// order, taking stat over each metric's values. A metric keeps its
// full-precision text when every pass agrees on it; otherwise the text
// gives the pass count, median, smallest and largest value.
func foldMetrics(lists [][]metric, stat func([]float64) float64) []metric {
	var order []string
	vals := map[string][]float64{}
	first := map[string]metric{}
	agree := map[string]bool{}
	for _, l := range lists {
		for _, m := range l {
			if _, ok := first[m.name]; !ok {
				order = append(order, m.name)
				first[m.name] = m
				agree[m.name] = true
			} else if m.text != first[m.name].text {
				agree[m.name] = false
			}
			vals[m.name] = append(vals[m.name], m.value)
		}
	}
	out := make([]metric, 0, len(order))
	for _, name := range order {
		m := first[name]
		vs := vals[name]
		m.value = stat(vs)
		if !agree[name] {
			m.text = fmt.Sprintf("%d differing passes: median %s, min %s, max %s", len(vs),
				fullFloat(median(vs)), fullFloat(slices.Min(vs)), fullFloat(slices.Max(vs)))
		}
		out = append(out, m)
	}
	return out
}
