package main

import (
	"context"
	"fmt"
	"time"

	"github.com/minatoloader/minato"
)

// A workload is one named set of inputs run through the public minato API.
// Every size below is fixed; only the seed changes the generated inputs.
type workload struct {
	name   string
	params map[string]any // recorded in the run manifest
	// prepare builds the workload's inputs from the seed.
	prepare func(seed uint64) runner
}

// A runner executes passes over one prepared set of inputs.
type runner interface {
	// run executes one pass; sink is nil on untraced passes.
	run(sink *minato.TraceSink) *pass
	// probe sets the substrate up, takes the first batch, and tears the
	// substrate down again, timing each phase.
	probe() (probeTimes, error)
}

// probeTimes are the host-time phases of one setup probe.
type probeTimes struct {
	build      time.Duration // substrate calls before the first batch is requested
	firstBatch time.Duration // from requesting batches to the first one delivered
	close      time.Duration // teardown after the first batch
	at         time.Time     // wall clock when the first batch arrived
}

var workloads = []workload{
	{
		name: "headline",
		params: map[string]any{
			"dataset": "LibriSpeech speech-3s", "hardware": "ConfigA (128 cores, 4xA100)",
			"loaders": []string{"pytorch", "pecan", "dali", "minato"}, "iterations_per_loader": headlineIters,
		},
		prepare: func(seed uint64) runner {
			return &headline{w: minato.SpeechWorkload(seed, 3*time.Second).WithIterations(headlineIters)}
		},
	},
	{
		name: "multinode",
		params: map[string]any{
			"dataset": "LibriSpeech speech-3s", "hardware": "ConfigA nodes, 1 GPU each",
			"nodes": multiNodes, "batches_per_node": multiIters, "storage": "shared remote store",
			"loader": "minato",
		},
		prepare: func(seed uint64) runner {
			return &multinode{w: minato.SpeechWorkload(seed, 3*time.Second).WithIterations(multiIters)}
		},
	},
	{
		name: "serve",
		params: map[string]any{
			"server_cores": serveCores, "clients": serveClients, "batches_per_client": serveIters,
			"batch_size": serveBatch, "corpus_samples": serveCorpus, "matcache_bytes": serveCacheBytes,
			"prefetch": servePrefetch, "sample_orders": serveOrders,
		},
		prepare: func(seed uint64) runner {
			return &serve{seed: seed, corpus: newCorpus(seed, serveCorpus), pipeline: corpusPipeline()}
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- headline: the paper's four-loader comparison on one machine ----

const headlineIters = 2000

type headline struct{ w minato.Workload }

func (h *headline) run(sink *minato.TraceSink) *pass {
	p := &pass{}
	fp := newFingerprint()
	reps := map[string]*minato.Report{}
	for _, f := range minato.AllFactories() {
		opts := []minato.Option{minato.WithLoaderFactory(f), minato.WithHardware(minato.ConfigA())}
		if sink != nil {
			sink.Reset()
			opts = append(opts, minato.WithTracing(sink))
		}
		p.ops++
		rep, err := minato.TrainWorkload(h.w, opts...)
		if err != nil {
			p.fail("%s: %v", f.Name, err)
			continue
		}
		want := int64(headlineIters * h.w.BatchSize)
		if rep.Batches != headlineIters || rep.Samples != want {
			p.fail("%s: delivered %d batches / %d samples, budget %d / %d",
				f.Name, rep.Batches, rep.Samples, headlineIters, want)
		}
		p.samples += rep.Samples
		fp.add(f.Name)
		fp.report(rep)
		reps[f.Name] = rep
		if sink != nil {
			p.spans += int64(sink.Len())
			if f.Name == "minato" {
				p.addLayers(traceLayers(sink)...)
			}
		}
	}
	p.fp = fp.sum()
	m, pt := reps["minato"], reps["pytorch"]
	if m == nil || pt == nil {
		return p
	}
	p.addSim(
		durMetric("sim_train_s", "s", m.TrainTime),
		floatMetric("sim_gpu_util_pct", "%", m.AvgGPUUtil),
		floatMetric("sim_speedup_vs_pytorch_x", "x", pt.TrainTime.Seconds()/m.TrainTime.Seconds()),
		durMetric("sim_step_p50_ms", "ms", m.StepP50).counted(m.Batches),
		durMetric("sim_step_p99_ms", "ms", m.StepP99).counted(m.Batches),
	)
	return p
}

func (h *headline) probe() (probeTimes, error) {
	var t probeTimes
	t0 := time.Now()
	cl, err := minato.NewCluster(minato.WithHardware(minato.ConfigA()))
	if err != nil {
		return t, err
	}
	sess, err := cl.Open(h.w.Dataset, minato.WithPipeline(h.w.Pipeline),
		minato.WithBatchSize(h.w.BatchSize), minato.WithIterations(headlineIters),
		minato.WithSeed(h.w.Seed), minato.WithLoader("minato"))
	if err != nil {
		_ = cl.Close()
		return t, err
	}
	t1 := time.Now()
	t.build = t1.Sub(t0)
	for _, err = range sess.Batches(context.Background()) {
		t.at = time.Now()
		break
	}
	t.firstBatch = t.at.Sub(t1)
	t2 := time.Now()
	_, closeErr := sess.Close()
	if clErr := cl.Close(); closeErr == nil {
		closeErr = clErr
	}
	t.close = time.Since(t2)
	switch {
	case err != nil:
		return t, err
	case t.at.IsZero():
		return t, fmt.Errorf("no batch delivered")
	}
	return t, closeErr
}

// ---- multinode: data-parallel training over the simulated fabric ----

const (
	multiNodes = 8
	multiIters = 400
)

type multinode struct{ w minato.Workload }

func (m *multinode) run(sink *minato.TraceSink) *pass {
	p := &pass{ops: multiNodes}
	opts := []minato.Option{minato.WithNodes(multiNodes), minato.WithGPUs(1)}
	if sink != nil {
		sink.Reset()
		opts = append(opts, minato.WithTracing(sink))
	}
	rep, err := minato.TrainMultiNodeWorkload(m.w, opts...)
	if err != nil {
		for n := 0; n < multiNodes; n++ {
			p.fail("node %d: %v", n, err)
		}
		return p
	}
	want := int64(multiIters * m.w.BatchSize)
	seen := make([]bool, multiNodes)
	for _, n := range rep.PerNode {
		if n.Node < 0 || n.Node >= multiNodes || seen[n.Node] {
			p.fail("unexpected node stats %+v", n)
			continue
		}
		seen[n.Node] = true
		if n.Samples != want {
			p.fail("node %d: delivered %d samples, budget %d", n.Node, n.Samples, want)
		}
	}
	for n, ok := range seen {
		if !ok {
			p.fail("node %d: no report", n)
		}
	}
	p.samples = rep.Samples
	p.fp = newFingerprint().multiNode(rep).sum()
	p.addSim(
		durMetric("sim_train_s", "s", rep.TrainTime),
		floatMetric("sim_gpu_util_pct", "%", rep.AvgGPUUtil),
		durMetric("sim_step_p50_ms", "ms", rep.StepP50).counted(rep.Steps),
		durMetric("sim_step_p99_ms", "ms", rep.StepP99).counted(rep.Steps),
	)
	p.addLayers(floatMetric("netsim.mb", "MB", float64(rep.NetworkBytes)/1e6))
	if sink != nil {
		p.spans = int64(sink.Len())
		p.addLayers(traceLayers(sink)...)
	}
	return p
}

func (m *multinode) probe() (probeTimes, error) {
	// TrainMultiNodeWorkload builds its substrate internally, so the whole
	// one-step job is the time to the first batch.
	var t probeTimes
	t0 := time.Now()
	rep, err := minato.TrainMultiNodeWorkload(m.w.WithIterations(1),
		minato.WithNodes(multiNodes), minato.WithGPUs(1))
	if err != nil {
		return t, err
	}
	if rep.Steps != 1 {
		return t, fmt.Errorf("one-step job ran %d steps", rep.Steps)
	}
	t.at = time.Now()
	t.firstBatch = t.at.Sub(t0)
	return t, nil
}

// ---- serve: one preprocessing server streaming to many remote clients ----

const (
	serveCores      = 8
	serveClients    = 64
	serveIters      = 32
	serveBatch      = 32
	serveCorpus     = 2048
	serveCacheBytes = 256 << 20 // an eighth of the corpus's ~2 GiB
	servePrefetch   = 4
	serveOrders     = 4 // distinct sample orders among the clients
)

type serve struct {
	seed     uint64
	corpus   *corpus
	pipeline *minato.Pipeline
}

// serveRig is one server cluster with its dialed clients.
type serveRig struct {
	sn       *minato.ServiceNet
	cl       *minato.Cluster
	addr     *minato.ServerAddr
	sessions []*minato.RemoteSession
}

func (s *serve) setup(sink *minato.TraceSink) (*serveRig, error) {
	r := &serveRig{sn: minato.NewServiceNet(nil, minato.ServiceNetConfig{Endpoints: serveClients + 1})}
	clOpts := []minato.ClusterOption{
		minato.WithRuntime(r.sn.Runtime()),
		minato.WithEnv(minato.EnvConfig{Cores: serveCores, GPUs: 1}),
		minato.WithMaterializedCache(serveCacheBytes),
	}
	srvOpts := []minato.ServeOption{minato.WithServiceNet(r.sn), minato.Publish("corpus", s.corpus, s.pipeline)}
	if sink != nil {
		sink.Reset()
		clOpts = append(clOpts, minato.WithTracing(sink))
		srvOpts = append(srvOpts, minato.WithTracing(sink))
	}
	var err error
	if r.cl, err = minato.NewCluster(clOpts...); err != nil {
		return nil, err
	}
	if r.addr, err = minato.Serve(r.cl, srvOpts...); err != nil {
		_ = r.cl.Close()
		return nil, err
	}
	for c := 0; c < serveClients; c++ {
		// Clients of one order share each other's fills; together the orders
		// overflow the cache, so entries are evicted and filled again.
		rs, err := minato.Dial(r.addr, minato.WithBatchSize(serveBatch), minato.WithIterations(serveIters),
			minato.WithSeed(s.seed+uint64(c%serveOrders)), minato.WithPrefetch(servePrefetch))
		if err != nil {
			_ = r.close()
			return nil, fmt.Errorf("dial client %d: %w", c, err)
		}
		r.sessions = append(r.sessions, rs)
	}
	return r, nil
}

// close tears the rig down, returning the first error.
func (r *serveRig) close() error {
	var first error
	for _, rs := range r.sessions {
		if _, err := rs.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := r.closeServer(); first == nil {
		first = err
	}
	return first
}

// closeServer closes the server and its cluster, returning the first error.
func (r *serveRig) closeServer() error {
	err := r.addr.Close()
	if clErr := r.cl.Close(); err == nil {
		err = clErr
	}
	return err
}

func (s *serve) run(sink *minato.TraceSink) *pass {
	p := &pass{ops: serveClients}
	r, err := s.setup(sink)
	if err != nil {
		for c := 0; c < serveClients; c++ {
			p.fail("client %d: %v", c, err)
		}
		return p
	}
	rt := r.sn.Runtime()
	waits := make([][]time.Duration, serveClients)
	problems := make([]error, serveClients)
	start := rt.Now()
	minato.StreamAll(context.Background(), r.sessions, func(i int, rs *minato.RemoteSession) {
		seen := make(map[[2]int]bool, serveIters*serveBatch)
		last := rt.Now()
		for b, err := range rs.Batches(context.Background()) {
			waits[i] = append(waits[i], rt.Now()-last)
			if err != nil {
				problems[i] = err
				return
			}
			if b.Size() != serveBatch && problems[i] == nil {
				problems[i] = fmt.Errorf("batch %d holds %d samples, want %d", len(waits[i]), b.Size(), serveBatch)
			}
			for _, smp := range b.Samples {
				k := [2]int{smp.Epoch, smp.Index}
				if seen[k] && problems[i] == nil {
					problems[i] = fmt.Errorf("sample %d repeated in epoch %d", smp.Index, smp.Epoch)
				}
				seen[k] = true
			}
			last = rt.Now()
		}
	})
	drain := rt.Now() - start

	fp := newFingerprint()
	fp.add(int64(drain))
	var retries, hedges int64
	for i, rs := range r.sessions {
		st := rs.Stats()
		rep, err := rs.Close()
		switch {
		case problems[i] != nil:
			p.fail("client %d: %v", i, problems[i])
		case err != nil:
			p.fail("client %d: close: %v", i, err)
		case rep.Batches != serveIters || rep.Samples != serveIters*serveBatch:
			p.fail("client %d: delivered %d batches / %d samples, budget %d / %d",
				i, rep.Batches, rep.Samples, serveIters, serveIters*serveBatch)
		case st.Retries > 0:
			p.fail("client %d: the server rejected %d opens", i, st.Retries)
		default:
			p.samples += rep.Samples
		}
		retries += st.Retries
		hedges += st.Hedges
		fp.add(st.Delivered, int64(st.WaitP50), int64(st.WaitP99), int64(st.StepP50), int64(st.StepP99),
			st.Hedges, st.Duplicates, st.Retries, st.MaxOutstanding, int64(rep.TrainTime), rep.Batches, rep.Samples, rep.TrainedBytes)
		for _, w := range waits[i] {
			fp.add(int64(w))
		}
	}
	srv, mat, net := r.addr.Stats(), r.cl.Stats().MatCache, r.sn.Stats()
	if err := r.closeServer(); err != nil {
		p.fail("teardown: %v", err)
	}
	fp.add(srv.StreamsTotal, srv.BatchesSent, srv.BytesSent, srv.MaxPending, srv.CancelsHonored, srv.FastForwards)
	fp.add(mat.Hits, mat.Misses, mat.Fills, mat.Evictions, mat.Invalidations, int64(mat.Saved), mat.Used)
	fp.add(net.BytesMoved, net.FlowsCompleted)
	p.fp = fp.sum()

	var all []time.Duration
	for _, w := range waits {
		all = append(all, w...)
	}
	// A client does no compute, so its step is all batch wait: the step
	// quantiles are the batch-wait ones under the names the other workloads
	// share.
	n := int64(len(all))
	p50 := durMetric("sim_batch_wait_p50_ms", "ms", quantileDur(all, 0.50)).counted(n)
	p99 := durMetric("sim_batch_wait_p99_ms", "ms", quantileDur(all, 0.99)).counted(n)
	p.addSim(durMetric("sim_train_s", "s", drain), p50, p99)
	p50.name, p99.name = "sim_step_p50_ms", "sim_step_p99_ms"
	p.addSim(p50, p99)
	rejections := srv.RejectedUnauthorized + srv.RejectedQuota + srv.RejectedOverloaded + srv.RejectedUnknown
	p.addLayers(
		countMetric("matcache.hits", mat.Hits),
		countMetric("matcache.fills", mat.Fills),
		countMetric("matcache.evictions", mat.Evictions),
		floatMetric("matcache.hit_pct", "%", 100*mat.HitRate()),
		durMetric("matcache.saved_s", "s", mat.Saved),
		floatMetric("netsim.mb", "MB", float64(net.BytesMoved)/1e6),
		countMetric("service.retries", retries),
		countMetric("service.hedges", hedges),
		countMetric("service.rejections", rejections),
	)
	if sink != nil {
		p.spans = int64(sink.Len())
		p.addLayers(traceLayers(sink)...)
	}
	return p
}

func (s *serve) probe() (probeTimes, error) {
	var t probeTimes
	t0 := time.Now()
	r, err := s.setup(nil)
	if err != nil {
		return t, err
	}
	t1 := time.Now()
	t.build = t1.Sub(t0)
	first := make(chan time.Time, serveClients) // one send per client at most
	minato.StreamAll(context.Background(), r.sessions, func(_ int, rs *minato.RemoteSession) {
		for _, err := range rs.Batches(context.Background()) {
			if err == nil {
				first <- time.Now()
			}
			break
		}
	})
	close(first)
	for at := range first {
		if t.at.IsZero() || at.Before(t.at) {
			t.at = at
		}
	}
	if t.at.IsZero() {
		_ = r.close()
		return t, fmt.Errorf("no batch delivered")
	}
	t.firstBatch = t.at.Sub(t1)
	t2 := time.Now()
	if err := r.close(); err != nil {
		return t, err
	}
	t.close = time.Since(t2)
	return t, nil
}

// corpus is the served dataset: samples of 0.75-1.25 MiB whose sizes and
// preprocessing complexities are drawn from the seed.
type corpus struct {
	raw        []int64
	complexity []float64
}

func newCorpus(seed uint64, n int) *corpus {
	c := &corpus{raw: make([]int64, n), complexity: make([]float64, n)}
	x := seed*0x9E3779B97F4A7C15 + 1
	next := func() float64 { // splitmix64, as a float in [0, 1)
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return float64((z^z>>31)>>11) / (1 << 53)
	}
	for i := range c.raw {
		c.raw[i] = int64((0.75 + 0.5*next()) * (1 << 20))
		c.complexity[i] = next()
	}
	return c
}

func (c *corpus) Name() string { return "perfbench-corpus" }
func (c *corpus) Len() int     { return len(c.raw) }

func (c *corpus) Sample(epoch, i int) *minato.Sample {
	s := &minato.Sample{}
	c.FillSample(epoch, i, s)
	return s
}

// FillSample is the allocation-free path pooled loaders use.
func (c *corpus) FillSample(epoch, i int, s *minato.Sample) {
	s.Index, s.Epoch = i, epoch
	s.Key = minato.Key{Space: "perfbench-corpus", Index: int64(i)}
	s.RawBytes, s.Bytes = c.raw[i], c.raw[i]
	s.Features.Complexity = c.complexity[i]
}

// corpusPipeline decodes each sample in 0.5-2 ms of one core, by complexity.
func corpusPipeline() *minato.Pipeline {
	return minato.NewPipeline("perfbench-decode", minato.NewTransform("decode",
		func(s *minato.Sample) time.Duration {
			return 500*time.Microsecond + time.Duration(s.Features.Complexity*float64(1500*time.Microsecond))
		}, nil))
}
