// Package service implements the disaggregated preprocessing tier: a
// batch-framed request/response protocol spoken between training clients
// and preprocessing servers over the netsim fabric, deterministically on
// the virtual clock.
//
// The wire model is deliberately simple — every message is one Frame, and
// a Frame costs its WireBytes on the sender's egress NIC and the
// receiver's ingress NIC, contending with every other flow on the fabric
// (gradient all-reduce, remote-storage reads). Determinism comes from the
// substrate: transfers complete at analytic, schedule-independent virtual
// instants, and every protocol state machine is commutative under
// same-instant frame reordering (per-stream state only, sequence-numbered
// batches, idempotent duplicate release).
//
// Protocol sketch:
//
//	client                          server
//	  OPEN(name, token, window) ─▶  auth → quota → capacity → open stream
//	  ◀─ OPEN_REPLY(id, window, total)
//	  REQ(seq) ×window ──────────▶  bounded grant queue (backpressure)
//	  ◀─ BATCH(seq) ...             one in-order pump per stream
//	  CANCEL(seq) ───────────────▶  withdraw an unsent grant (hedging)
//	  CLOSE ─────────────────────▶  teardown, then exactly one
//	  ◀─ END(code)                  END after server-side cleanup
//
// The client keeps a bounded number of REQs outstanding (its prefetch
// window, capped by the server's send window), reorders arriving batches
// by sequence number, and optionally hedges the head-of-line sequence
// against a replica server after a fixed delay — first response wins, the
// loser's grant is cancelled, and a too-late duplicate is received and
// released (never leaked).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/netsim"
	"github.com/minatoloader/minato/internal/queue"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Typed protocol errors. The root package re-exports these in its error
// taxonomy; clients receive them from Open/Recv, servers' openers return
// them to select the rejection code sent on the wire.
var (
	// ErrUnauthorized rejects an OPEN whose token the server does not
	// recognize.
	ErrUnauthorized = errors.New("minato: unauthorized")
	// ErrQuotaExceeded rejects an OPEN whose token is at its concurrent-
	// stream quota.
	ErrQuotaExceeded = errors.New("minato: tenant quota exceeded")
	// ErrServerOverloaded rejects an OPEN arriving while the server (or
	// its backing cluster) is at stream capacity, and kills streams whose
	// clients violate the granted send window. Clients retry with backoff.
	ErrServerOverloaded = errors.New("minato: server overloaded")
	// ErrUnknownStream rejects an OPEN for a name the server does not
	// publish, and REQs against stream ids the server does not know.
	ErrUnknownStream = errors.New("minato: unknown stream")
)

// Op enumerates frame types.
type Op uint8

const (
	// OpOpen asks the server to open a batch stream (Spec carries what).
	OpOpen Op = iota
	// OpOpenReply answers an OpOpen: Code, and on success the stream id,
	// granted send window, and total batch count.
	OpOpenReply
	// OpReq requests batch Seq of a stream — one REQ per batch, bounded by
	// the granted window.
	OpReq
	// OpBatch delivers batch Seq (the frame owns Batch until received).
	OpBatch
	// OpEnd is the server's final frame for a stream: end of data, a kill,
	// or the acknowledgement of an OpClose — sent exactly once, after all
	// server-side stream state is torn down.
	OpEnd
	// OpCancel withdraws an unsent grant (hedging: the other replica won).
	OpCancel
	// OpClose asks the server to tear the stream down.
	OpClose
)

// Code classifies OpOpenReply and OpEnd frames.
type Code uint8

const (
	// CodeOK accepts an open or acknowledges a close.
	CodeOK Code = iota
	// CodeEOF ends a stream that delivered its full budget.
	CodeEOF
	// CodeUnauthorized, CodeQuotaExceeded, CodeOverloaded, and
	// CodeUnknownStream carry the typed rejections.
	CodeUnauthorized
	CodeQuotaExceeded
	CodeOverloaded
	CodeUnknownStream
	// CodeError reports a server-side stream failure.
	CodeError
)

// ErrFromCode maps a rejection code to its typed error.
func ErrFromCode(c Code) error {
	switch c {
	case CodeUnauthorized:
		return ErrUnauthorized
	case CodeQuotaExceeded:
		return ErrQuotaExceeded
	case CodeOverloaded:
		return ErrServerOverloaded
	case CodeUnknownStream:
		return ErrUnknownStream
	default:
		return fmt.Errorf("minato: stream failed (code %d)", c)
	}
}

// StreamSpec is what an OPEN asks for: a published dataset × pipeline by
// name, the client's auth token, and the stream shape.
type StreamSpec struct {
	Name       string
	Token      string
	BatchSize  int
	Iterations int
	Epochs     int
	Seed       uint64
	// Window is the client's requested prefetch depth; the server grants
	// min(Window, its own send window).
	Window int
}

// frameHeaderBytes is the fixed wire cost of any frame (op, ids, seq,
// code, window/total fields).
const frameHeaderBytes = 64

// Frame is one protocol message.
type Frame struct {
	Op     Op
	From   int // sender endpoint
	Stream uint64
	Seq    int
	Code   Code
	Spec   StreamSpec // OpOpen only
	Window int        // OpOpenReply: granted send window
	Total  int        // OpOpenReply: the stream's batch budget
	// Batch is the payload of an OpBatch; the frame owns it in flight.
	Batch *data.Batch
	// Bytes is the batch payload's wire size, computed while the batch is
	// alive (Batch.Bytes panics after release).
	Bytes int64
}

// WireBytes is the frame's cost on the fabric.
func (fr *Frame) WireBytes() int64 {
	n := int64(frameHeaderBytes)
	switch fr.Op {
	case OpOpen:
		n += int64(len(fr.Spec.Name) + len(fr.Spec.Token))
	case OpBatch:
		n += fr.Bytes
	}
	return n
}

// BatchWireBytes is the wire size of a batch payload: sample payload bytes
// plus a 32-byte per-sample framing record. Compute it while the batch is
// alive.
func BatchWireBytes(b *data.Batch) int64 {
	return b.Bytes() + 32*int64(b.Size())
}

// Config sizes a service network.
type Config struct {
	// Endpoints bounds how many NIC-owning parties (servers + clients) the
	// network hosts. Default 64.
	Endpoints int
	// Bandwidth is each NIC's full-duplex bandwidth in bytes/s per
	// direction. Default 25e9 (200 Gb/s, the paper's interconnect).
	Bandwidth float64
	// Latency is the fixed per-frame propagation delay. Default 200µs.
	Latency time.Duration
	// InboxDepth bounds each endpoint's receive queue. Default 256.
	InboxDepth int
}

func (c *Config) fill() {
	if c.Endpoints <= 0 {
		c.Endpoints = 64
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = 25e9
	}
	if c.Latency == 0 {
		c.Latency = 200 * time.Microsecond
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 256
	}
}

// Net is the service fabric: a netsim interconnect plus one frame inbox
// per allocated endpoint, and the fleet registry mapping server indices to
// endpoints (chaos scripts target servers by fleet index).
type Net struct {
	rt  *simtime.Virtual
	fab *netsim.Fabric
	cfg Config

	mu      sync.Mutex
	next    int
	inboxes []*queue.Queue[Frame]
	servers []int // fleet index → endpoint

	// tr, when set, records one StageFrame span per delivered frame: wire
	// time plus receiver backpressure, sender in Node, destination in Key,
	// the frame's Op in Detail.
	tr *trace.Recorder
}

// NewNet builds a service fabric on rt.
func NewNet(rt *simtime.Virtual, cfg Config) *Net {
	cfg.fill()
	return &Net{
		rt: rt,
		fab: netsim.New(rt, netsim.Config{
			Endpoints: cfg.Endpoints,
			Bandwidth: cfg.Bandwidth,
			Latency:   cfg.Latency,
		}),
		cfg:     cfg,
		inboxes: make([]*queue.Queue[Frame], cfg.Endpoints),
	}
}

// Runtime returns the clock the network runs on.
func (n *Net) Runtime() *simtime.Virtual { return n.rt }

// EnableTrace attaches a span recorder to the service network: every
// delivered frame records a StageFrame span, and the underlying fabric
// records flow lifetimes and rate changes. Call before traffic starts.
func (n *Net) EnableTrace(r *trace.Recorder) {
	n.mu.Lock()
	n.tr = r
	n.mu.Unlock()
	n.fab.EnableTrace(r)
}

// Bandwidth returns the configured per-NIC baseline bandwidth.
func (n *Net) Bandwidth() float64 { return n.cfg.Bandwidth }

// AllocEndpoint attaches a new party to the fabric and returns its
// endpoint id, or an error when the configured endpoint budget is spent.
func (n *Net) AllocEndpoint() (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.next >= n.cfg.Endpoints {
		return 0, fmt.Errorf("service: endpoint budget %d exhausted", n.cfg.Endpoints)
	}
	ep := n.next
	n.next++
	n.inboxes[ep] = queue.New[Frame](n.rt, fmt.Sprintf("svc-inbox-%d", ep), n.cfg.InboxDepth)
	return ep, nil
}

// Inbox returns the endpoint's receive queue.
func (n *Net) Inbox(ep int) *queue.Queue[Frame] {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inboxes[ep]
}

// RegisterServer records ep as the next member of the server fleet and
// returns its fleet index.
func (n *Net) RegisterServer(ep int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers = append(n.servers, ep)
	return len(n.servers) - 1
}

// ServerCount returns how many servers have registered.
func (n *Net) ServerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.servers)
}

// ServerEndpoint returns the endpoint of fleet member i.
func (n *Net) ServerEndpoint(i int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.servers[i]
}

// SetBandwidth changes an endpoint's NIC bandwidth mid-run (chaos link
// degradation); the fabric clamps to its MinBandwidth floor.
func (n *Net) SetBandwidth(ep int, bw float64) { n.fab.SetBandwidth(ep, bw) }

// BytesMoved and FlowsCompleted expose the fabric's deterministic traffic
// totals for reports and determinism fingerprints.
func (n *Net) BytesMoved() int64     { return n.fab.BytesMoved() }
func (n *Net) FlowsCompleted() int64 { return n.fab.FlowsCompleted() }

// Send transfers fr from fr.From to dst over the fabric — blocking the
// calling task for the propagation latency plus the fair-shared transfer
// time — then delivers it into dst's inbox (blocking while the inbox is
// full: receiver backpressure reaches the sender). Must run on a tracked
// task.
func (n *Net) Send(ctx context.Context, dst int, fr Frame) error {
	t0 := n.rt.Now()
	if err := n.fab.Transfer(ctx, fr.From, dst, fr.WireBytes()); err != nil {
		return err
	}
	inbox := n.Inbox(dst)
	if inbox == nil {
		return fmt.Errorf("service: send to unallocated endpoint %d", dst)
	}
	if err := inbox.Put(ctx, fr); err != nil {
		return fmt.Errorf("service: endpoint %d inbox: %w", dst, err)
	}
	n.mu.Lock()
	tr := n.tr
	n.mu.Unlock()
	tr.Record(trace.Span{Start: t0, End: n.rt.Now(), Stage: trace.StageFrame,
		Node: int32(fr.From), Key: int64(dst), Seq: int64(fr.Seq), Detail: int64(fr.Op)})
	return nil
}
