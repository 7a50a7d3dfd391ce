// Package trace is the simulator's deterministic span recorder: every
// layer (storage, caches, workers, devices, the interconnect, the service
// wire, chaos) stamps what it did and when from the virtual clock, and the
// exporters turn the result into a Perfetto-viewable timeline or a
// per-batch critical-path attribution.
//
// # Determinism
//
// A span's fields are pure functions of the simulation: start and end come
// from simtime.Virtual.Now(), and the identity fields (stage, tenant,
// node, key, seq) come from the simulated entities themselves — never from
// allocation order, goroutine identity, or a shared counter. Tasks reach
// the recorder's mutex in OS-scheduling order, so the *append order* of
// spans is not reproducible, but the *set* of spans is: canonicalizing
// lane labels (Canonicalize) and sorting (Compare) before export yields a
// byte-identical trace across runs, including under -race. This is the
// same invariant the netsim fabric maintains for flows: deterministic in
// virtual time, not "deterministic only if the scheduler cooperates".
//
// The guarantee is exactly as strong as the simulation's own. The virtual
// kernel runs one task at a time in an order fixed by the program, so a
// run driven from one goroutine — or fanned out with StreamAll — replays
// the same events in the same order; repeated-run tests cover multi-GPU
// sessions (which batch constructor wins each sample), a 16-tenant
// cluster, and 8- and 16-node chaos jobs. Consumers started from separate
// goroutines join the kernel in wall-clock order, and the trace inherits
// that. Canonicalize makes the labels independent
// of peer choice; it cannot — and does not try to — make the trace more
// deterministic than the simulation it records.
//
// # Cost
//
// Spans are stored in pooled fixed-size chunks behind one mutex: the
// steady-state record path is a lock, a struct copy, and an index bump —
// no allocation once the chunk pool has warmed. With tracing off the
// recorder pointer is nil and every Record call is a nil-check that the
// compiler can see through, so the headline bench's near-zero-alloc hot
// path is untouched.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Stage identifies which layer produced a span and what it was doing.
type Stage uint8

// The instrumented stages, one block per layer. Values are part of the
// canonical sort order; append new stages at the end of their block's
// numeric range rather than renumbering.
const (
	// Storage: disk occupancy, remote fetches, and the page cache's
	// single-flight protocol (a follower's wait references its leader's
	// fill through the shared (tenant, key) identity).
	StageDiskRead Stage = iota + 1
	StageRemoteFetch
	StageCacheHit  // instant: page-cache hit
	StageCacheFill // leader: miss → fetch → install
	StageCacheWait // follower: parked on the leader's fill

	// Materialized preprocessed-sample cache (matcache).
	StageMatHit  // instant: preprocessing skipped entirely
	StageMatFill // leader: claim → preprocess → Complete
	StageMatWait // follower: parked on the leader's fill

	// Worker pipeline inside the loader core.
	StageTransform // one pipeline execution on a worker
	StageQueueWait // batch parked in the delivery queue until Next
	StageAssemble  // batch construction window (first sample → sealed)

	// Consumer step anatomy. These tile each consumer's step interval:
	// DataWait + Copy + GPUStep (+ BarrierWait + NetworkWait or Downtime
	// in a distributed run) account for the whole batch latency.
	StageDataWait
	StageCopy
	StageGPUStep
	StageBarrierWait
	StageNetworkWait
	StageDowntime

	// Device occupancy (GPU compute under the shared-capacity model).
	StageDeviceRun

	// Interconnect: a flow's lifetime and its rate-change bends.
	StageFlow
	StageFlowRate // instant: flow reshared to Detail bytes/s

	// Service wire: one protocol frame's transfer (Detail = frame kind).
	StageFrame

	// Chaos: an applied fault (instant) and its measured window.
	StageFault
	StageFaultWindow

	stageCount
)

// stageNames is the export vocabulary; indexes match the Stage constants.
var stageNames = [stageCount]string{
	StageDiskRead:    "disk-read",
	StageRemoteFetch: "remote-fetch",
	StageCacheHit:    "cache-hit",
	StageCacheFill:   "cache-fill",
	StageCacheWait:   "cache-wait",
	StageMatHit:      "mat-hit",
	StageMatFill:     "mat-fill",
	StageMatWait:     "mat-wait",
	StageTransform:   "transform",
	StageQueueWait:   "queue-wait",
	StageAssemble:    "assemble",
	StageDataWait:    "data-wait",
	StageCopy:        "h2d-copy",
	StageGPUStep:     "gpu-step",
	StageBarrierWait: "barrier-wait",
	StageNetworkWait: "network-wait",
	StageDowntime:    "downtime",
	StageDeviceRun:   "device-run",
	StageFlow:        "flow",
	StageFlowRate:    "flow-rate",
	StageFrame:       "frame",
	StageFault:       "fault",
	StageFaultWindow: "fault-window",
}

// String returns the stage's export name.
func (s Stage) String() string {
	if s < stageCount && stageNames[s] != "" {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded interval (or instant, when Start == End). The
// identity fields link related spans across layers: a follower's
// StageCacheWait carries the same (Tenant, Key) as its leader's
// StageCacheFill, and a consumer's step spans share (Node, Key, Seq) so
// the critical-path analyzer can reassemble each batch's journey.
type Span struct {
	Start, End time.Duration
	Stage      Stage
	// Tenant is the session's tenant id on a shared substrate (0 when the
	// run has a single tenant).
	Tenant int32
	// Node is the rank in a multi-node run, or the fabric endpoint for
	// netsim/service spans (0 on a single machine).
	Node int32
	// Key is the stage-specific identity: sample index for storage and
	// worker spans, GPU index for step spans, device id for occupancy,
	// link pair for flows, stream id for frames.
	Key int64
	// Seq is the stage-specific sequence: batch sequence for step and
	// assembly spans, flow entry time for interconnect spans, frame
	// sequence on the wire.
	Seq int64
	// Detail is auxiliary payload: bytes moved, a rate in bytes/s, a
	// chaos event kind, a frame kind.
	Detail int64
}

// Compare orders spans canonically: by start, end, stage, then the
// identity fields. Two spans equal under Compare are identical in every
// field, so the canonical order is total over distinct spans and the
// sorted trace is a pure function of the span *set* — recording order
// cannot leak into an export.
func Compare(a, b Span) int {
	switch {
	case a.Start != b.Start:
		return cmpDur(a.Start, b.Start)
	case a.End != b.End:
		return cmpDur(a.End, b.End)
	case a.Stage != b.Stage:
		return int(a.Stage) - int(b.Stage)
	case a.Tenant != b.Tenant:
		return int(a.Tenant - b.Tenant)
	case a.Node != b.Node:
		return int(a.Node - b.Node)
	case a.Key != b.Key:
		return cmpI64(a.Key, b.Key)
	case a.Seq != b.Seq:
		return cmpI64(a.Seq, b.Seq)
	default:
		return cmpI64(a.Detail, b.Detail)
	}
}

func cmpDur(a, b time.Duration) int {
	if a < b {
		return -1
	}
	return 1
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// chunkSpans sizes one pooled chunk. 512 spans ≈ 28 KiB — large enough
// that a busy session amortizes the pool round-trip, small enough that an
// idle tenant doesn't pin much.
const chunkSpans = 512

type chunk struct {
	spans [chunkSpans]Span
	n     int
}

// chunkPool recycles chunks across recorders and resets, so repeated
// traced sessions reach a zero-allocation recording steady state.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Recorder accumulates spans from every layer of a run. A nil *Recorder
// is the disabled state: all methods are no-ops, and the nil check is the
// entire hot-path cost. Safe for concurrent use by tracked tasks.
type Recorder struct {
	mu     sync.Mutex
	chunks []*chunk
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder is live (non-nil). Call sites with
// pre-span work (e.g. capturing a start time they would not otherwise
// need) gate on it.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one span. No-op on a nil recorder.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.tail()
	c.spans[c.n] = s
	c.n++
	r.mu.Unlock()
}

// Instant records a zero-length span at t. No-op on a nil recorder.
func (r *Recorder) Instant(s Span, t time.Duration) {
	if r == nil {
		return
	}
	s.Start, s.End = t, t
	r.Record(s)
}

// tail returns the chunk with room for one more span. Caller holds r.mu.
func (r *Recorder) tail() *chunk {
	if n := len(r.chunks); n > 0 {
		if c := r.chunks[n-1]; c.n < chunkSpans {
			return c
		}
	}
	c := chunkPool.Get().(*chunk)
	c.n = 0
	r.chunks = append(r.chunks, c)
	return c
}

// Len returns the number of recorded spans. Zero on a nil recorder.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.chunks {
		n += c.n
	}
	return n
}

// Snapshot returns every recorded span with lane labels canonicalized
// (see Canonicalize) in canonical order. The result is a copy; recording
// may continue. Nil on a nil recorder.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := 0
	for _, c := range r.chunks {
		n += c.n
	}
	out := make([]Span, 0, n)
	for _, c := range r.chunks {
		out = append(out, c.spans[:c.n]...)
	}
	r.mu.Unlock()
	Canonicalize(out)
	Sort(out)
	return out
}

// Reset drops every recorded span, returning the chunks to the shared
// pool. No-op on a nil recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	chunks := r.chunks
	r.chunks = nil
	r.mu.Unlock()
	for _, c := range chunks {
		chunkPool.Put(c)
	}
}

// Sort orders spans canonically in place (see Compare).
func Sort(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return Compare(spans[i], spans[j]) < 0 })
}

// Filter returns the spans keep admits, preserving order.
func Filter(spans []Span, keep func(Span) bool) []Span {
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}
