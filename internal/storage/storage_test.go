package storage

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/simtime"
)

func TestDiskReadTakesBandwidthTime(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := NewDisk(k, "nvme", 1e9, 1) // 1 GB/s
		start := k.Now()
		if err := d.Read(context.Background(), 500e6); err != nil {
			t.Fatal(err)
		}
		if got := (k.Now() - start).Seconds(); math.Abs(got-0.5) > 0.01 {
			t.Fatalf("500MB at 1GB/s took %.3fs, want 0.5s", got)
		}
		if br := d.BytesRead(); math.Abs(float64(br)-500e6) > 1e6 {
			t.Fatalf("BytesRead = %d, want ≈500e6", br)
		}
	})
}

func TestDiskConcurrentReadersShareBandwidth(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := NewDisk(k, "nvme", 2e9, 2) // 2 GB/s total, 2 full-speed streams
		wg := simtime.NewWaitGroup(k)
		start := k.Now()
		// 4 concurrent 1 GB reads: total 4 GB at 2 GB/s aggregate = 2s.
		for i := 0; i < 4; i++ {
			wg.Go("reader", func() {
				_ = d.Read(context.Background(), 1e9)
			})
		}
		_ = wg.Wait(context.Background())
		if got := (k.Now() - start).Seconds(); math.Abs(got-2) > 0.05 {
			t.Fatalf("4GB over 2GB/s took %.3fs, want ≈2s", got)
		}
	})
}

func TestPageCacheLRUEviction(t *testing.T) {
	c := NewPageCache(100)
	c.Put(data.KeyOf("k", 1), 40)
	c.Put(data.KeyOf("k", 2), 40)
	if !c.Get(data.KeyOf("k", 1)) || !c.Get(data.KeyOf("k", 2)) {
		t.Fatal("fresh entries missing")
	}
	// "a" is now more recently used than... b was touched after a; touch a
	// again so b is LRU.
	c.Get(data.KeyOf("k", 1))
	c.Put(data.KeyOf("k", 3), 40) // evicts b
	if c.Get(data.KeyOf("k", 2)) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !c.Get(data.KeyOf("k", 1)) || !c.Get(data.KeyOf("k", 3)) {
		t.Fatal("a/c should remain")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Used != 80 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPageCacheOversizedObjectNotCached(t *testing.T) {
	c := NewPageCache(10)
	c.Put(data.KeyOf("big", 0), 100)
	if c.Get(data.KeyOf("big", 0)) {
		t.Fatal("oversized object cached")
	}
	if c.Stats().Used != 0 {
		t.Fatal("used nonzero")
	}
}

func TestPageCacheDuplicatePut(t *testing.T) {
	c := NewPageCache(100)
	c.Put(data.KeyOf("k", 1), 30)
	c.Put(data.KeyOf("k", 1), 30)
	if got := c.Stats().Used; got != 30 {
		t.Fatalf("Used = %d after duplicate Put, want 30", got)
	}
}

func TestStoreCachesAfterFirstRead(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		disk := NewDisk(k, "nvme", 1e9, 1)
		st := &Store{Disk: disk, Cache: NewPageCache(1 << 30)}
		s := &data.Sample{Key: data.KeyOf("x", 1), RawBytes: 100e6, Bytes: 100e6}

		start := k.Now()
		if err := st.ReadSample(context.Background(), k, s); err != nil {
			t.Fatal(err)
		}
		coldTime := k.Now() - start
		if coldTime < 90*time.Millisecond {
			t.Fatalf("cold read took %v, want ≈100ms", coldTime)
		}

		start = k.Now()
		if err := st.ReadSample(context.Background(), k, s); err != nil {
			t.Fatal(err)
		}
		if warm := k.Now() - start; warm > time.Millisecond {
			t.Fatalf("warm read took %v, want ≈0", warm)
		}
		if hr := st.Cache.HitRate(); math.Abs(hr-0.5) > 0.01 {
			t.Fatalf("hit rate = %.2f, want 0.5", hr)
		}
	})
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	// §5.5: dataset ≫ cache ⇒ near-zero hit rate on cyclic (epoch) access.
	k := simtime.NewVirtual()
	k.Run(func() {
		disk := NewDisk(k, "nvme", 100e9, 1)
		st := &Store{Disk: disk, Cache: NewPageCache(50)}
		// 10 samples of 10 bytes = 100 bytes working set, cache 50.
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < 10; i++ {
				s := &data.Sample{Key: data.KeyOf("k", i), RawBytes: 10}
				if err := st.ReadSample(context.Background(), k, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		if hr := st.Cache.HitRate(); hr > 0.05 {
			t.Fatalf("hit rate = %.2f under cyclic thrash, want ≈0", hr)
		}
	})
}

func TestReadRateGauge(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		d := NewDisk(k, "nvme", 1e9, 1)
		g := d.ReadRateGauge(k)
		_ = d.Read(context.Background(), 1e9) // 1s at 1GB/s
		r := g()
		if math.Abs(r-1e9) > 5e7 {
			t.Fatalf("rate = %.2e, want ≈1e9", r)
		}
		_ = k.Sleep(context.Background(), time.Second)
		if r := g(); r > 1e6 {
			t.Fatalf("idle rate = %.2e, want ≈0", r)
		}
	})
}

// Property: cache used never exceeds capacity and never goes negative.
func TestQuickCacheCapacityInvariant(t *testing.T) {
	f := func(ops []struct {
		Key  uint8
		Size uint16
	}) bool {
		c := NewPageCache(1000)
		for _, op := range ops {
			c.Put(data.KeyOf("k", int(op.Key%32)), int64(op.Size))
			s := c.Stats()
			if s.Used < 0 || s.Used > s.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sleepFetcher models the network leg of a remote store: each fetched byte
// costs time at a fixed bandwidth.
type sleepFetcher struct {
	rt    *simtime.Virtual
	bw    float64
	bytes int64
}

func (f *sleepFetcher) Fetch(ctx context.Context, n int64) error {
	f.bytes += n
	return f.rt.Sleep(ctx, time.Duration(float64(n)/f.bw*float64(time.Second)))
}

func TestRemoteStorePaysNetworkOnColdReadsOnly(t *testing.T) {
	k := simtime.NewVirtual()
	k.Run(func() {
		disk := NewDisk(k, "lustre", 1e9, 1)
		cache := NewPageCache(1 << 30)
		net := &sleepFetcher{rt: k, bw: 0.5e9}
		st := &Store{Disk: disk, Cache: cache, Remote: net}
		s := &data.Sample{Key: data.KeyOf("remote", 1), RawBytes: 100e6}

		start := k.Now()
		if err := st.ReadSample(context.Background(), k, s); err != nil {
			t.Fatal(err)
		}
		// Cold: 0.1s disk + 0.2s network.
		if got := (k.Now() - start).Seconds(); math.Abs(got-0.3) > 0.01 {
			t.Fatalf("cold remote read took %.3fs, want ≈0.3s", got)
		}
		if net.bytes != s.RawBytes {
			t.Fatalf("fetched %d network bytes, want %d", net.bytes, s.RawBytes)
		}

		start = k.Now()
		if err := st.ReadSample(context.Background(), k, s); err != nil {
			t.Fatal(err)
		}
		// Warm: the node-local page cache absorbs the read entirely.
		if got := k.Now() - start; got != 0 {
			t.Fatalf("warm remote read took %v, want 0", got)
		}
		if net.bytes != s.RawBytes {
			t.Fatal("cache hit paid the network again")
		}
	})
}
