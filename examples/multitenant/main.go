// Multitenant: sixteen concurrent loading sessions sharing one
// minato.Cluster — the "many jobs, one machine" deployment the Cluster API
// exists for.
//
// One ConfigA testbed hosts every tenant: they share the CPU worker pool
// (fairly arbitrated, weighted by WithPriority), the page cache (per-tenant
// hit attribution, single-flight fills), and the sample pool. Admission
// control caps concurrency; the demo opens one session more than the cap
// to show ErrClusterSaturated.
//
// The whole run is deterministic: virtual time, fixed seeds, and one
// minato.StreamAll fan-out that runs every tenant's consumer on the
// cluster's kernel in a fixed order. To prove it,
// the schedule runs twice on two fresh clusters and the per-tenant reports
// are required to be bit-identical — batches, samples, bytes, delivery
// time, and cache attribution.
//
//	go run ./examples/multitenant
//	go run -race ./examples/multitenant
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/minatoloader/minato"
)

const tenants = 16

// corpus is one tenant's dataset. Key spaces are per-tenant here so each
// report is independent of sibling scheduling; share the space across
// tenants (one corpus, many readers) and the cluster shares warm-up reads
// through the cache instead.
type corpus struct {
	name string
	n    int
}

func (d corpus) Name() string { return d.name }
func (d corpus) Len() int     { return d.n }
func (d corpus) Sample(epoch, i int) *minato.Sample {
	s := &minato.Sample{}
	d.FillSample(epoch, i, s)
	return s
}
func (d corpus) FillSample(epoch, i int, s *minato.Sample) {
	s.Index, s.Epoch = i, epoch
	s.Key = minato.Key{Space: d.name, Index: int64(i)}
	s.RawBytes, s.Bytes = 1<<20, 1<<20
}

// tenantReport is the deterministic core of one tenant's outcome.
type tenantReport struct {
	workload  string
	loader    string
	batches   int64
	samples   int64
	bytes     int64
	trainTime time.Duration
	hits      int64
	misses    int64
	quota     int
}

// runSchedule opens every tenant on a fresh cluster, streams them
// concurrently, and returns the per-tenant reports.
func runSchedule() ([tenants]tenantReport, error) {
	var out [tenants]tenantReport
	cluster, err := minato.NewCluster(
		minato.WithHardware(minato.ConfigA()),
		minato.WithMaxSessions(tenants),
		minato.WithAdmission(minato.AdmitReject),
	)
	if err != nil {
		return out, err
	}
	defer cluster.Close()

	pipeline := minato.NewPipeline("decode",
		minato.NewTransform("Decode",
			func(*minato.Sample) time.Duration { return 500 * time.Microsecond }, nil))

	sessions := make([]*minato.Session, tenants)
	for t := range sessions {
		// Tenants 0-3 are high priority (weight 4): they buy a 4× share of
		// the preprocessing workers.
		weight := 1.0
		if t < 4 {
			weight = 4
		}
		sessions[t], err = cluster.Open(corpus{name: fmt.Sprintf("tenant-%02d", t), n: 2048},
			minato.WithPipeline(pipeline),
			minato.WithBatchSize(32),
			minato.WithIterations(40),
			minato.WithGPUs(1),
			minato.WithSeed(uint64(t+1)),
			minato.WithPriority(weight),
		)
		if err != nil {
			return out, err
		}
	}

	// The cluster is at capacity: one more open must be rejected.
	if _, err := cluster.Open(corpus{name: "overflow", n: 64}); !errors.Is(err, minato.ErrClusterSaturated) {
		return out, fmt.Errorf("expected ErrClusterSaturated, got %v", err)
	}

	// StreamAll runs every tenant's consumer as a task of the cluster's one
	// kernel, spawned in tenant order, so the interleaving (and with it
	// every report) is the same on every run. Consumers started from
	// separate goroutines would join the kernel in wall-clock order.
	errs := make(chan error, tenants)
	for t, sess := range sessions {
		out[t].quota = sess.Stats().WorkerQuota
	}
	minato.StreamAll(context.Background(), sessions, func(t int, sess *minato.Session) {
		for _, err := range sess.Batches(context.Background()) {
			if err != nil {
				errs <- fmt.Errorf("tenant %d: %w", t, err)
				return
			}
		}
		rep, err := sess.Close()
		if err != nil {
			errs <- fmt.Errorf("tenant %d close: %w", t, err)
			return
		}
		out[t] = tenantReport{
			workload: rep.Workload, loader: rep.Loader,
			batches: rep.Batches, samples: rep.Samples, bytes: rep.TrainedBytes,
			trainTime: rep.TrainTime,
			hits:      rep.CacheStats.Hits, misses: rep.CacheStats.Misses,
			quota: out[t].quota,
		}
	})
	close(errs)
	for err := range errs {
		return out, err
	}
	return out, nil
}

func main() {
	start := time.Now()
	first, err := runSchedule()
	if err != nil {
		log.Fatal(err)
	}
	second, err := runSchedule()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %5s %6s %8s %10s %7s %7s %6s\n",
		"tenant", "prio", "quota", "batches", "samples", "t(s)", "misses", "hits")
	for t, rep := range first {
		prio := 1
		if t < 4 {
			prio = 4
		}
		fmt.Printf("%-10s %5d %6d %8d %10d %7.2f %7d %6d\n",
			rep.workload, prio, rep.quota, rep.batches, rep.samples,
			rep.trainTime.Seconds(), rep.misses, rep.hits)
	}

	if first != second {
		fmt.Println("\nDETERMINISM FAILURE: per-tenant reports diverged between runs")
		for t := range first {
			if first[t] != second[t] {
				fmt.Printf("tenant %d:\n  run 1: %+v\n  run 2: %+v\n", t, first[t], second[t])
			}
		}
		os.Exit(1)
	}
	fmt.Printf("\n16 tenants × 2 runs: per-tenant reports bit-identical (deterministic)\n")
	fmt.Printf("wall time: %s\n", time.Since(start).Round(time.Millisecond))
}
