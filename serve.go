package minato

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/chaos"
	"github.com/minatoloader/minato/internal/service"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Disaggregated preprocessing. Serve turns a Cluster into a preprocessing
// server: its CPU workers, caches, and admission machinery feed batches
// over a simulated network to remote training clients instead of local
// GPUs. Dial connects a client to a served stream and returns a
// RemoteSession whose Batches iterator looks exactly like a local
// Session's — same iter.Seq2 shape, same recycling contract — except the
// batches crossed a netsim fabric with real (virtual-time) transfer and
// queueing delays. One preprocessing fleet can feed many training
// clusters; clients hedge slow servers against replicas, retry overloaded
// ones with backoff, and are backpressured by bounded per-stream send
// windows. Everything runs on the virtual clock, so a served topology is
// as deterministic as a local run.
//
//	net := minato.NewServiceNet(nil, minato.ServiceNetConfig{})
//	cl, _ := minato.NewCluster(minato.WithRuntime(net.Runtime()))
//	addr, _ := minato.Serve(cl, minato.WithServiceNet(net),
//	    minato.Publish("train", dataset, pipeline))
//	rs, _ := minato.Dial(addr, minato.WithIterations(100))
//	for b, err := range rs.Batches(ctx) { ... }

// ServiceNetConfig sizes a service fabric. Zero values take the service
// defaults (64 endpoints, 25 GB/s per NIC, 200µs latency).
type ServiceNetConfig struct {
	// Endpoints bounds how many parties (servers + clients) attach.
	Endpoints int
	// Bandwidth is each NIC's full-duplex bandwidth in bytes/s.
	Bandwidth float64
	// Latency is the fixed per-frame propagation delay.
	Latency time.Duration
}

// ServiceNet is the shared fabric a preprocessing fleet and its clients
// communicate over. Build one per topology and hand it to every Serve
// (WithServiceNet) whose cluster shares the runtime; Dial reaches servers
// through the address, so clients never touch the net directly.
type ServiceNet struct {
	rt  Runtime
	net *service.Net
}

// NewServiceNet builds a service fabric on rt; a nil rt gets a fresh
// deterministic virtual runtime (share it with NewCluster via
// WithRuntime(net.Runtime())).
func NewServiceNet(rt Runtime, cfg ServiceNetConfig) *ServiceNet {
	if rt == nil {
		rt = simtime.NewVirtual()
	}
	return &ServiceNet{
		rt: rt,
		net: service.NewNet(rt, service.Config{
			Endpoints: cfg.Endpoints,
			Bandwidth: cfg.Bandwidth,
			Latency:   cfg.Latency,
		}),
	}
}

// Runtime returns the clock the fabric runs on.
func (n *ServiceNet) Runtime() Runtime { return n.rt }

// ServiceNetStats is the fabric's deterministic traffic totals.
type ServiceNetStats struct {
	BytesMoved     int64
	FlowsCompleted int64
}

// Stats snapshots the fabric's traffic counters.
func (n *ServiceNet) Stats() ServiceNetStats {
	return ServiceNetStats{
		BytesMoved:     n.net.BytesMoved(),
		FlowsCompleted: n.net.FlowsCompleted(),
	}
}

// TokenQuota is one auth token's entitlement on a served cluster: a cap
// on concurrent streams and the fair-share weight its streams carry into
// the cluster's worker arbitration.
type TokenQuota = service.TokenQuota

// ServeStats is a server's multi-tenant front-end counters: streams
// admitted and active, typed rejections, batches/bytes sent, the
// send-window high-water, and hedge bookkeeping (cancels honored,
// fast-forwards).
type ServeStats = service.Stats

// RemoteStats is a remote session's client-side counters: delivered
// batches, batch-wait and inter-delivery quantiles, hedges fired,
// duplicates released, overloaded-open retries, and the outstanding-REQ
// high-water.
type RemoteStats = service.ClientStats

// published is one name → (dataset, pipeline) binding a server offers.
type published struct {
	dataset  Dataset
	pipeline *Pipeline
}

// serveOptions accumulates the functional options of Serve.
type serveOptions struct {
	net        *ServiceNet
	tokens     map[string]TokenQuota
	sendWindow int
	maxStreams int
	published  map[string]published
	chaos      *ChaosScript
	chaosName  string
	trace      *trace.Recorder
}

// ServeOption configures a preprocessing server (Serve).
type ServeOption interface{ applyServe(*serveOptions) }

type serveOption func(*serveOptions)

func (f serveOption) applyServe(o *serveOptions) { f(o) }

// WithServiceNet attaches the server to an existing fabric so several
// servers (and their clients) share one network. The fabric must run on
// the cluster's runtime. Default: a fresh fabric on the cluster's runtime.
func WithServiceNet(n *ServiceNet) ServeOption {
	return serveOption(func(o *serveOptions) { o.net = n })
}

// WithToken adds an auth token to the server's admission table. A server
// with at least one token rejects unknown tokens with ErrUnauthorized and
// enforces each token's quota with ErrQuotaExceeded; a server with no
// tokens accepts everyone at weight 1.
func WithToken(token string, q TokenQuota) ServeOption {
	return serveOption(func(o *serveOptions) {
		if o.tokens == nil {
			o.tokens = make(map[string]TokenQuota)
		}
		o.tokens[token] = q
	})
}

// WithSendWindow bounds batches granted-but-undelivered per stream (the
// server-side backpressure window). A client REQ beyond it is a protocol
// violation and kills the stream. Default 8.
func WithSendWindow(n int) ServeOption {
	return serveOption(func(o *serveOptions) { o.sendWindow = n })
}

// WithServerMaxStreams caps concurrent streams server-wide; OPENs beyond
// it are rejected with ErrServerOverloaded and clients retry with
// backoff. 0 = unlimited (the backing cluster's WithMaxSessions still
// applies).
func WithServerMaxStreams(n int) ServeOption {
	return serveOption(func(o *serveOptions) { o.maxStreams = n })
}

// Publish offers dataset × pipeline under name: clients select it with
// WithStream(name). A nil pipeline serves samples unchanged. At least one
// Publish is required; each Dial-opened stream runs as its own session of
// the backing cluster (own seed and budget, shared caches and workers).
func Publish(name string, dataset Dataset, pipeline *Pipeline) ServeOption {
	return serveOption(func(o *serveOptions) {
		if o.published == nil {
			o.published = make(map[string]published)
		}
		o.published[name] = published{dataset: dataset, pipeline: pipeline}
	})
}

// resolveChaos validates the serve-shape chaos options: link events
// (targeting fleet indices of servers registered so far) drive NIC
// degradation through an engine; disk events pre-install slowdown steps on
// the cluster's disk. Training-run kinds (crash, preempt, worker stall)
// are rejected — they script consumers, and a server has none.
func (o *serveOptions) resolveChaos(fleet int) (link, disk []ChaosEvent, err error) {
	if o.chaos != nil && o.chaosName != "" {
		return nil, nil, configErr("WithChaos/WithChaosScenario", "mutually exclusive")
	}
	var s ChaosScript
	opt := "WithChaos"
	switch {
	case o.chaos != nil:
		s = *o.chaos
	case o.chaosName != "":
		opt = "WithChaosScenario"
		var ok bool
		s, ok = chaos.ByName(o.chaosName)
		if !ok {
			return nil, nil, configErr(opt, fmt.Sprintf("unknown scenario %q", o.chaosName))
		}
	default:
		return nil, nil, nil
	}
	for _, ev := range s.Sorted() {
		switch ev.Kind {
		case ChaosLinkDegrade, ChaosLinkRestore:
			if ev.Node < 0 || ev.Node >= fleet {
				return nil, nil, configErr(opt, fmt.Sprintf(
					"link event targets fleet index %d, but the fleet has %d server(s)", ev.Node, fleet))
			}
			if ev.Kind == ChaosLinkDegrade && ev.Factor < 1 {
				return nil, nil, configErr(opt, fmt.Sprintf("link degrade factor %g < 1", ev.Factor))
			}
			link = append(link, ev)
		case ChaosDiskDegrade, ChaosDiskRestore:
			if ev.Kind == ChaosDiskDegrade && ev.Factor < 1 {
				return nil, nil, configErr(opt, fmt.Sprintf("disk degrade factor %g < 1", ev.Factor))
			}
			disk = append(disk, ev)
		default:
			return nil, nil, configErr(opt, fmt.Sprintf(
				"%v events apply to training runs, not preprocessing servers", ev.Kind))
		}
	}
	return link, disk, nil
}

// ServerAddr is a running preprocessing server's address: what Dial
// connects to, and the handle for its stats and shutdown.
type ServerAddr struct {
	sn    *ServiceNet
	rt    Runtime
	cl    *Cluster
	srv   *service.Server
	ep    int
	fleet int
	pub   map[string]published
	wg    *simtime.WaitGroup

	// link chaos starts lazily at the first admitted stream (shifted to
	// that instant), so the script measures from when traffic exists —
	// an engine parked on timers at Serve time would otherwise drag the
	// idle kernel's clock through the whole script before the first Dial.
	linkEvents []ChaosEvent
	tr         *trace.Recorder
	engOnce    sync.Once
	engMu      sync.Mutex
	eng        *chaos.Engine

	closed atomic.Bool
}

// startLinkChaos launches the link-fault replay, anchored at the current
// virtual instant. Runs on a stream pump task at the first batch pulled
// from any of the server's streams, so the anchor is deterministic.
func (a *ServerAddr) startLinkChaos() {
	a.engOnce.Do(func() {
		now := a.rt.Now()
		events := make([]ChaosEvent, len(a.linkEvents))
		for i, ev := range a.linkEvents {
			ev.At += now
			events[i] = ev
		}
		base := a.sn.net.Bandwidth()
		eng := chaos.StartEngine(a.rt, a.wg, events, func(ev ChaosEvent) {
			target := a.sn.net.ServerEndpoint(ev.Node)
			switch ev.Kind {
			case ChaosLinkDegrade:
				a.sn.net.SetBandwidth(target, base/ev.Factor)
			case ChaosLinkRestore:
				a.sn.net.SetBandwidth(target, base)
			}
			a.tr.Instant(trace.Span{Stage: trace.StageFault,
				Node: int32(ev.Node), Key: int64(ev.Kind)}, a.rt.Now())
		})
		a.engMu.Lock()
		if a.closed.Load() {
			eng.Stop()
		} else {
			a.eng = eng
		}
		a.engMu.Unlock()
	})
}

// Serve starts a disaggregated preprocessing server on the cluster: its
// workers, caches, and fair-share governor become a multi-tenant backend
// for remote training clients. The cluster must use AdmitReject admission
// (a queued open would block the server's dispatch loop; overload is
// instead surfaced as a typed ErrServerOverloaded rejection that clients
// retry with backoff) and must share the fabric's runtime. At least one
// Publish is required.
//
// Chaos: WithChaos/WithChaosScenario here take the serve shape — link
// events degrade a fleet member's NIC by index (the fleet is every server
// registered on the fabric so far, in Serve order), disk events brown out
// the cluster's storage. Consumer-side kinds are rejected.
func Serve(cl *Cluster, opts ...ServeOption) (*ServerAddr, error) {
	if cl == nil {
		return nil, configErr("Serve", "requires a cluster")
	}
	if cl.isClosed() {
		return nil, ErrClusterClosed
	}
	o := &serveOptions{}
	for _, opt := range opts {
		opt.applyServe(o)
	}
	if len(o.published) == 0 {
		return nil, configErr("Publish", "a server must publish at least one stream")
	}
	for name, pub := range o.published {
		if pub.dataset == nil {
			return nil, configErr("Publish", fmt.Sprintf("stream %q has a nil dataset", name))
		}
	}
	if o.sendWindow < 0 {
		return nil, configErr("WithSendWindow", fmt.Sprintf("window %d < 0", o.sendWindow))
	}
	if o.maxStreams < 0 {
		return nil, configErr("WithServerMaxStreams", fmt.Sprintf("cap %d < 0", o.maxStreams))
	}
	if cl.admission == AdmitQueue {
		return nil, configErr("Serve",
			"AdmitQueue clusters block saturated opens, which would stall the server's dispatch loop; use AdmitReject (overload becomes a typed rejection clients retry)")
	}
	sn := o.net
	if sn == nil {
		sn = NewServiceNet(cl.rt, ServiceNetConfig{})
	} else if sn.rt != cl.rt {
		return nil, configErr("WithServiceNet", "the fabric and the cluster must share a runtime")
	}
	ep, err := sn.net.AllocEndpoint()
	if err != nil {
		return nil, err
	}
	fleet := sn.net.RegisterServer(ep)
	link, disk, err := o.resolveChaos(sn.net.ServerCount())
	if err != nil {
		return nil, err
	}
	chaos.ScheduleDiskSlowdowns(disk, cl.disk)
	if o.trace != nil {
		sn.net.EnableTrace(o.trace)
	}
	addr := &ServerAddr{
		sn:         sn,
		rt:         cl.rt,
		cl:         cl,
		ep:         ep,
		fleet:      fleet,
		pub:        o.published,
		wg:         simtime.NewWaitGroup(cl.rt),
		linkEvents: link,
		tr:         o.trace,
	}
	opener := &clusterOpener{cl: cl, pub: o.published}
	if len(link) > 0 {
		opener.onFirstPull = addr.startLinkChaos
	}
	addr.srv = service.NewServer(sn.net, ep, service.ServerConfig{
		Tokens:     o.tokens,
		SendWindow: o.sendWindow,
		MaxStreams: o.maxStreams,
	}, opener)
	addr.srv.Start()
	return addr, nil
}

// Net returns the fabric the server is attached to.
func (a *ServerAddr) Net() *ServiceNet { return a.sn }

// Fleet returns the server's fleet index on its fabric — what link-chaos
// events and replica selection refer to.
func (a *ServerAddr) Fleet() int { return a.fleet }

// Streams lists the published stream names, sorted.
func (a *ServerAddr) Streams() []string {
	names := make([]string, 0, len(a.pub))
	for n := range a.pub {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the server's front-end counters; safe from any
// goroutine.
func (a *ServerAddr) Stats() ServeStats { return a.srv.Stats() }

// Close shuts the server down: the chaos engine stops, in-flight streams
// are torn down (their cluster sessions closed), and late frames are
// drained silently. The backing cluster stays open — closing it is the
// caller's job. Idempotent.
func (a *ServerAddr) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	a.engMu.Lock()
	eng := a.eng
	a.engMu.Unlock()
	eng.Stop()
	a.rt.Run(func() {
		_ = a.wg.Wait(context.Background())
		a.srv.Close()
	})
	return nil
}

// clusterOpener adapts a Cluster to the service.Opener seam: each
// accepted OPEN becomes one session of the backing cluster, so served
// streams get the same admission, fair-share arbitration, and shared
// caches as local sessions — a remote client's warm hits come from
// batches its neighbors already preprocessed.
type clusterOpener struct {
	cl  *Cluster
	pub map[string]published
	// onFirstPull fires once, at the first batch pulled from any stream —
	// the anchor for the server's lazily started link-chaos replay. The
	// anchor is the pull, not the open: between a Dial and its Batches the
	// kernel is idle, and an engine armed early would be the only timer
	// holder, dragging the clock through the whole script before traffic
	// exists.
	onFirstPull func()
}

func (co *clusterOpener) OpenStream(spec service.StreamSpec, weight float64) (service.Stream, error) {
	pub, ok := co.pub[spec.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q not published", service.ErrUnknownStream, spec.Name)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	if weight <= 0 {
		weight = 1
	}
	o := &sessionOptions{
		pipeline:   pub.pipeline,
		batchSize:  spec.BatchSize,
		iterations: spec.Iterations,
		epochs:     spec.Epochs,
		seed:       seed,
		weight:     weight,
		gpus:       1,
	}
	s, err := co.cl.open(pub.dataset, o, false)
	if err != nil {
		if errors.Is(err, ErrClusterSaturated) || errors.Is(err, ErrClusterClosed) {
			return nil, fmt.Errorf("%w: %v", service.ErrServerOverloaded, err)
		}
		return nil, err
	}
	return &serveStream{s: s, onFirstPull: co.onFirstPull}, nil
}

// serveStream drives one cluster session as a server-side batch source.
// The loader starts lazily at the first batch pull (an admitted stream
// costs nothing until its client REQs), and delivery runs on the session's
// single GPU-0 queue — the "GPU" here is the server's egress NIC.
type serveStream struct {
	s           *Session
	started     bool
	onFirstPull func()
}

func (st *serveStream) Next(ctx context.Context) (*Batch, error) {
	s := st.s
	if !st.started {
		if !s.state.CompareAndSwap(sessionNew, sessionConsumed) {
			return nil, ErrSessionConsumed
		}
		if st.onFirstPull != nil {
			st.onFirstPull()
		}
		now := int64(s.rt.Now())
		s.startAt.Store(now)
		s.endAt.Store(now)
		if err := s.ld.Start(ctx); err != nil {
			s.err = err
			return nil, err
		}
		st.started = true
	}
	b, err := s.ld.Next(ctx, 0)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return nil, err
	}
	s.batches.Add(1)
	s.samples.Add(int64(b.Size()))
	s.bytes.Add(b.Bytes())
	s.endAt.Store(int64(s.rt.Now()))
	return b, nil
}

func (st *serveStream) Total() int { return st.s.spec.TotalBatches() }

func (st *serveStream) Close() {
	if st.started {
		st.s.ld.Stop()
		_ = st.s.env.WG.Wait(context.Background())
		// An early-stopped loader leaves constructed batches buffered in
		// its delivery queue (closed queues still serve their backlog);
		// drain and release them so pooled samples are never leaked.
		for {
			b, err := st.s.ld.Next(context.Background(), 0)
			if err != nil {
				break
			}
			b.Release()
		}
	}
	_, _ = st.s.Close()
}

// dialOptions accumulates the functional options of Dial.
type dialOptions struct {
	stream     string
	token      string
	prefetch   int
	hedge      *ServerAddr
	hedgeDelay time.Duration
	retries    int
	backoff    time.Duration
	batchSize  int
	iterations int
	epochs     int
	seed       uint64
	retain     bool
}

// DialOption configures a remote session (Dial). The stream-shape options
// (WithBatchSize, WithIterations, WithEpochs, WithSeed, WithRetainBatches)
// are StreamOptions and work on both local Opens and Dials.
type DialOption interface{ applyDial(*dialOptions) }

type dialOption func(*dialOptions)

func (f dialOption) applyDial(o *dialOptions) { f(o) }

// StreamOption shapes a batch stream wherever it runs: locally (Open,
// Train) or remotely (Dial).
type StreamOption interface {
	Option
	DialOption
}

type streamOption struct {
	session func(*sessionOptions)
	dial    func(*dialOptions)
}

func (o streamOption) applySession(s *sessionOptions) { o.session(s) }
func (o streamOption) applyDial(d *dialOptions)       { o.dial(d) }

// WithStream selects which published stream to consume. Optional when the
// server publishes exactly one.
func WithStream(name string) DialOption {
	return dialOption(func(o *dialOptions) { o.stream = name })
}

// WithAuthToken authenticates the client on token-gated servers.
func WithAuthToken(token string) DialOption {
	return dialOption(func(o *dialOptions) { o.token = token })
}

// WithPrefetch sets the client's pipeline depth: how many batch requests
// it keeps outstanding (the server caps it at its send window). Default 4.
func WithPrefetch(n int) DialOption {
	return dialOption(func(o *dialOptions) { o.prefetch = n })
}

// WithHedge arms hedged requests against a replica server: when the
// head-of-line batch has been outstanding longer than delay, the client
// re-requests it from the replica — first response wins, the loser's
// grant is cancelled, and a too-late duplicate is released, never leaked.
// The replica must serve the same stream on the same fabric.
func WithHedge(replica *ServerAddr, delay time.Duration) DialOption {
	return dialOption(func(o *dialOptions) { o.hedge = replica; o.hedgeDelay = delay })
}

// WithDialRetry bounds OPEN retries after ErrServerOverloaded rejections
// (default 0: fail fast) with exponential backoff from the given base
// (default 10ms).
func WithDialRetry(attempts int, backoff time.Duration) DialOption {
	return dialOption(func(o *dialOptions) { o.retries = attempts; o.backoff = backoff })
}

// Dial opens a batch stream on a served preprocessing cluster and returns
// the remote session. The stream's shape (batch size, budget, seed) is
// set client-side with the usual StreamOptions; the server admits the
// open through its auth table, quotas, and capacity — rejections come
// back as the typed ErrUnauthorized / ErrQuotaExceeded /
// ErrServerOverloaded, the latter retried per WithDialRetry before
// surfacing.
func Dial(addr *ServerAddr, opts ...DialOption) (*RemoteSession, error) {
	if addr == nil {
		return nil, configErr("Dial", "requires a server address")
	}
	o := &dialOptions{prefetch: 4}
	for _, opt := range opts {
		opt.applyDial(o)
	}
	switch {
	case o.prefetch <= 0:
		return nil, configErr("WithPrefetch", fmt.Sprintf("depth %d must be positive", o.prefetch))
	case o.retries < 0:
		return nil, configErr("WithDialRetry", fmt.Sprintf("attempts %d < 0", o.retries))
	case o.batchSize < 0:
		return nil, configErr("WithBatchSize", fmt.Sprintf("batch size %d < 0", o.batchSize))
	case o.iterations < 0:
		return nil, configErr("WithIterations", fmt.Sprintf("iteration budget %d < 0", o.iterations))
	case o.epochs < 0:
		return nil, configErr("WithEpochs", fmt.Sprintf("epoch budget %d < 0", o.epochs))
	}
	if o.stream == "" {
		if len(addr.pub) != 1 {
			return nil, configErr("WithStream", fmt.Sprintf(
				"the server publishes %d streams (%v); pick one", len(addr.pub), addr.Streams()))
		}
		o.stream = addr.Streams()[0]
	}
	replicaEP := -1
	if o.hedge != nil {
		switch {
		case o.hedgeDelay <= 0:
			return nil, configErr("WithHedge", fmt.Sprintf("hedge delay %v must be positive", o.hedgeDelay))
		case o.hedge.sn != addr.sn:
			return nil, configErr("WithHedge", "the replica must share the primary's fabric")
		case o.hedge == addr:
			return nil, configErr("WithHedge", "the replica must be a different server")
		}
		replicaEP = o.hedge.ep
	}
	spec := service.StreamSpec{
		Name:       o.stream,
		Token:      o.token,
		BatchSize:  o.batchSize,
		Iterations: o.iterations,
		Epochs:     o.epochs,
		Seed:       o.seed,
	}
	cfg := service.ClientConfig{
		Window:     o.prefetch,
		HedgeDelay: o.hedgeDelay,
		Retries:    o.retries,
		Backoff:    o.backoff,
	}
	rs := &RemoteSession{addr: addr, rt: addr.rt, stream: o.stream, retain: o.retain}
	var cli *service.Client
	var err error
	addr.rt.Run(func() {
		cli, err = service.Open(context.Background(), addr.sn.net, addr.ep, replicaEP, spec, cfg)
	})
	if err != nil {
		if errors.Is(err, service.ErrUnknownStream) {
			return nil, configErr("WithStream", err.Error())
		}
		return nil, err
	}
	rs.cli = cli
	return rs, nil
}

// RemoteSession is one client-side batch stream over the service fabric —
// the remote counterpart of a Session. Batches streams the configured
// budget exactly once with the same recycling contract; Close tears the
// stream down (server-side session included) and returns the Report.
type RemoteSession struct {
	addr   *ServerAddr
	rt     Runtime
	cli    *service.Client
	stream string
	retain bool

	state   atomic.Int32
	closed  atomic.Bool
	err     error
	startAt atomic.Int64 // time.Duration
	endAt   atomic.Int64
	batches atomic.Int64
	samples atomic.Int64
	bytes   atomic.Int64
}

// Batches returns a single-use iterator over the remote stream, shaped
// exactly like Session.Batches: batches arrive in order, a yielded batch
// is recycled when the loop takes the next step (unless WithRetainBatches),
// and breaking out early cancels the stream server-side. Waiting happens
// in virtual time; hedged requests fire while the consumer is parked.
func (s *RemoteSession) Batches(ctx context.Context) iter.Seq2[*Batch, error] {
	return func(yield func(*Batch, error) bool) {
		switch {
		case s.state.Load() == sessionClosed:
			yield(nil, ErrSessionClosed)
			return
		case !s.state.CompareAndSwap(sessionNew, sessionConsumed):
			yield(nil, ErrSessionConsumed)
			return
		}
		s.rt.Run(func() {
			if err := ctx.Err(); err != nil {
				s.err = err
				yield(nil, err)
				return
			}
			now := int64(s.rt.Now())
			s.startAt.Store(now)
			s.endAt.Store(now)
			defer func() {
				if s.closed.CompareAndSwap(false, true) {
					_ = s.cli.Close(context.Background())
				}
			}()
			var prev *Batch
			var prevGen uint32
			for {
				b, err := s.cli.Recv(ctx)
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					s.err = err
					yield(nil, err)
					return
				}
				s.batches.Add(1)
				s.samples.Add(int64(b.Size()))
				s.bytes.Add(b.Bytes())
				s.endAt.Store(int64(s.rt.Now()))
				if prev != nil && !s.retain {
					prev.ReleaseIfOwned(prevGen)
				}
				prev, prevGen = b, b.Generation()
				if !yield(b, nil) {
					return
				}
			}
		})
	}
}

// Stats snapshots the client-side counters; safe from any goroutine.
func (s *RemoteSession) Stats() RemoteStats { return s.cli.Stats() }

// Close tears the remote stream down — the server finishes or discards
// in-flight batches, closes its backing cluster session, and sends its
// final END — and returns the client-side Report. Idempotent.
func (s *RemoteSession) Close() (*Report, error) {
	s.state.Store(sessionClosed)
	if s.closed.CompareAndSwap(false, true) {
		s.rt.Run(func() { _ = s.cli.Close(context.Background()) })
	}
	cs := s.cli.Stats()
	rep := &Report{
		Workload:     s.stream,
		Loader:       "remote",
		GPUs:         1,
		TrainTime:    time.Duration(s.endAt.Load() - s.startAt.Load()),
		Batches:      s.batches.Load(),
		Samples:      s.samples.Load(),
		TrainedBytes: s.bytes.Load(),
	}
	rep.StepP50 = cs.StepP50
	rep.StepP99 = cs.StepP99
	return rep, s.err
}

// StreamAll consumes many sessions concurrently on one kernel: local
// Sessions of one cluster, or RemoteSessions of one fabric. Each
// fn(i, session) runs as its own tracked task, spawned in slice order
// inside a single Run, so virtual time advances with every consumer's
// traffic interleaved and the run is as deterministic as a single session
// — the N-tenants × one-machine and N-trainers × one-fleet topologies.
// (Consumers started from separate goroutines instead join the kernel in
// wall-clock order, so their interleaving, and with it their reports, can
// differ from run to run.) Sessions that do not all share one kernel get
// plain goroutines instead; each such session is deterministic on its own.
func StreamAll[S interface{ *Session | *RemoteSession }](ctx context.Context, sessions []S, fn func(i int, s S)) {
	if len(sessions) == 0 {
		return
	}
	rtOf := func(s S) Runtime {
		if ls, ok := any(s).(*Session); ok {
			return ls.rt
		}
		return any(s).(*RemoteSession).rt
	}
	v := rtOf(sessions[0])
	shared := true
	for _, s := range sessions {
		shared = shared && rtOf(s) == v
	}
	if shared {
		v.Run(func() {
			wg := simtime.NewWaitGroup(v)
			for i, s := range sessions {
				wg.Go("stream", func() { fn(i, s) })
			}
			_ = wg.Wait(ctx)
		})
		return
	}
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, s)
		}()
	}
	wg.Wait()
}
