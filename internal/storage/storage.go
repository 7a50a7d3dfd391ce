// Package storage models the persistent-storage path of the training
// pipeline: a bandwidth-shared disk (NVMe or a parallel filesystem) fronted
// by an OS page cache with a byte capacity.
//
// This is the substrate for §5.5's memory-constrained experiment: a 230 GB
// dataset under an 80 GB cgroup cap forces every epoch to hit storage, so
// loader quality shows up as sustained versus volatile disk reads.
package storage

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minatoloader/minato/internal/data"
	"github.com/minatoloader/minato/internal/device"
	"github.com/minatoloader/minato/internal/simtime"
	"github.com/minatoloader/minato/internal/trace"
)

// Disk is a bandwidth-shared storage device. Parallelism is the number of
// concurrent streams that can each sustain full per-stream bandwidth
// (Lustre-like filesystems serve several clients at once; an NVMe drive
// saturates with few).
type Disk struct {
	rt       *simtime.Virtual
	dev      *device.Device
	streamBW float64 // bytes per second per stream

	mu       sync.Mutex
	slowdown float64 // ≥1; failure-injection multiplier on read time
	// sched is a pre-installed degradation timeline, sorted by instant.
	// Once the clock reaches its first point it overrides the live
	// slowdown: the factor a read sees is then a pure function of the
	// read's start time, so a reader racing the scripted transition
	// instant resolves identically no matter which side the scheduler
	// runs first — live SetSlowdown mutation cannot promise that.
	sched []slowdownPoint

	bytesRead atomic.Int64
}

// slowdownPoint is one step of a scheduled degradation timeline.
type slowdownPoint struct {
	at time.Duration
	f  float64
}

// NewDisk returns a disk with the given aggregate bandwidth split across
// `parallelism` full-speed streams.
func NewDisk(rt *simtime.Virtual, name string, aggregateBW float64, parallelism float64) *Disk {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Disk{
		rt:       rt,
		dev:      device.New(rt, name, parallelism),
		streamBW: aggregateBW / parallelism,
		slowdown: 1,
	}
}

// Read occupies the disk for n bytes.
func (d *Disk) Read(ctx context.Context, n int64) error {
	if n <= 0 {
		return nil
	}
	d.mu.Lock()
	f := d.slowdown
	if len(d.sched) > 0 {
		now := d.rt.Now()
		for i := len(d.sched) - 1; i >= 0; i-- {
			if d.sched[i].at <= now {
				f = d.sched[i].f
				break
			}
		}
	}
	d.mu.Unlock()
	if err := d.dev.Run(ctx, time.Duration(float64(n)*f/d.streamBW*float64(time.Second))); err != nil {
		return err
	}
	d.bytesRead.Add(n)
	return nil
}

// SetSlowdown injects a storage degradation: subsequent reads take factor×
// longer (factor ≥ 1; 1 restores full speed). Models transient contention
// on shared filesystems or a failing drive — the I/O interference §5.3
// observes on the Lustre testbed.
func (d *Disk) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.mu.Lock()
	d.slowdown = factor
	d.mu.Unlock()
}

// ScheduleSlowdown pre-installs a degradation step: reads starting at or
// after `at` take factor× longer, until a later scheduled point. Install
// the whole timeline before the clock reaches its first point — scripted
// fault injection uses this instead of SetSlowdown so that a read racing
// the transition instant itself still resolves deterministically (the
// factor is a pure function of the read's start time).
func (d *Disk) ScheduleSlowdown(at time.Duration, factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i := len(d.sched)
	for i > 0 && d.sched[i-1].at > at {
		i--
	}
	d.sched = append(d.sched, slowdownPoint{})
	copy(d.sched[i+1:], d.sched[i:])
	d.sched[i] = slowdownPoint{at: at, f: factor}
}

// BytesRead returns the cumulative bytes transferred (completed reads).
func (d *Disk) BytesRead() int64 { return d.bytesRead.Load() }

// AggregateBandwidth returns the disk's maximum total throughput.
func (d *Disk) AggregateBandwidth() float64 {
	return d.streamBW * d.dev.Capacity()
}

// ReadRateGauge returns a sampling function reporting read throughput in
// bytes/second over the window since the previous call.
func (d *Disk) ReadRateGauge(rt *simtime.Virtual) func() float64 {
	last := d.BytesRead()
	lastT := rt.Now()
	return func() float64 {
		cur := d.BytesRead()
		now := rt.Now()
		dt := (now - lastT).Seconds()
		var r float64
		if dt > 0 {
			r = float64(cur-last) / dt
		}
		last, lastT = cur, now
		return r
	}
}

// PageCache is a byte-capacity LRU cache keyed by sample storage keys. The
// LRU list is intrusive (nodes carry their own links) and nodes are
// recycled through a process-wide pool, so cache traffic allocates nothing
// in steady state beyond the index map itself.
//
// A cache may be shared by several tenants (concurrent loading sessions of
// one cluster). Tenants register with JoinTenant and route their traffic
// through GetAs/PutAs, which attribute hits, misses, evictions, and resident
// bytes per tenant; TenantStats exposes the attribution. Capacity is softly
// partitioned: while more than one tenant is joined, eviction prefers
// victims from tenants holding more than their equal share of the capacity
// (scanning a bounded window from the LRU tail), so one tenant's working set
// cannot silently evict everyone else's. Tenant 0 is the implicit
// unattributed tenant that plain Get/Put traffic lands on.
type PageCache struct {
	mu         sync.Mutex
	capacity   int64
	used       int64
	head, tail *cacheNode // head = most recently used
	index      map[data.Key]*cacheNode

	hits, misses, evictions int64

	// tenants[id] carries per-tenant attribution; slot 0 is the implicit
	// unattributed tenant and is always considered live.
	tenants     []tenantCounters
	liveTenants int // joined tenants (excluding slot 0)

	// inflight single-flights fetches: while one reader (the leader) is
	// filling a key from disk, concurrent readers of the same key park on
	// waiters instead of issuing redundant reads — the page-lock semantics
	// of a real OS page cache, and the mechanism that lets co-running
	// sessions over one dataset share a single warm-up pass.
	inflight map[data.Key][]*simtime.Waiter
}

// tenantCounters is one tenant's slice of the cache accounting.
type tenantCounters struct {
	live                    bool
	hits, misses, evictions int64
	used                    int64 // resident bytes inserted by this tenant
	diskBytes               int64 // bytes this tenant's leader fetches read from disk
}

// partitionScanDepth bounds how far eviction scans from the LRU tail for an
// over-share victim before falling back to the global LRU tail. Bounded so
// eviction stays O(1)-ish and deterministic.
const partitionScanDepth = 64

type cacheNode struct {
	key        data.Key
	bytes      int64
	tenant     int32
	prev, next *cacheNode
}

var cacheNodePool = sync.Pool{New: func() any { return new(cacheNode) }}

// cacheIndexPool recycles index maps across caches: Go keeps a cleared
// map's buckets allocated, so a session's cache starts with the previous
// session's bucket array instead of growing from scratch.
var cacheIndexPool = sync.Pool{New: func() any { return make(map[data.Key]*cacheNode) }}

// NewPageCache returns a cache with the given byte capacity.
func NewPageCache(capacity int64) *PageCache {
	return &PageCache{
		capacity: capacity,
		index:    cacheIndexPool.Get().(map[data.Key]*cacheNode),
	}
}

// Recycle empties the cache and returns its nodes and index storage to the
// process-wide pools. It is owned by whoever owns the cache's lifetime — a
// Cluster, or trainer.Simulate for its private testbed — never by an
// individual session, which may share the cache with live siblings. Recycle
// is idempotent: an already-empty cache hands nothing to the pools, and the
// cache itself remains usable (empty) afterwards. Tenant hit/miss counters
// survive (they describe traffic, not contents); resident-byte attribution
// is zeroed with the contents.
func (c *PageCache) Recycle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	empty := c.head == nil
	for n := c.head; n != nil; {
		next := n.next
		*n = cacheNode{}
		cacheNodePool.Put(n)
		n = next
	}
	c.head, c.tail = nil, nil
	c.used = 0
	for i := range c.tenants {
		c.tenants[i].used = 0
	}
	if empty && len(c.index) == 0 {
		return // second Recycle: nothing to hand to the pools
	}
	clear(c.index)
	cacheIndexPool.Put(c.index)
	// A small fresh map keeps this cache usable; the warmed buckets go to
	// the next session's cache.
	c.index = make(map[data.Key]*cacheNode)
}

// JoinTenant registers a tenant for attribution and soft partitioning,
// returning its id for GetAs/PutAs/TenantStats. Slots of departed tenants
// whose entries have fully left the cache are reused.
func (c *PageCache) JoinTenant() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.tenants) == 0 {
		c.tenants = append(c.tenants, tenantCounters{live: true}) // slot 0
	}
	c.liveTenants++
	for id := 1; id < len(c.tenants); id++ {
		if !c.tenants[id].live && c.tenants[id].used == 0 {
			c.tenants[id] = tenantCounters{live: true}
			return id
		}
	}
	c.tenants = append(c.tenants, tenantCounters{live: true})
	return len(c.tenants) - 1
}

// LeaveTenant deregisters a tenant. Its resident entries stay cached (they
// may still serve siblings) but its slot is reclaimed once they age out.
func (c *PageCache) LeaveTenant(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id > 0 && id < len(c.tenants) && c.tenants[id].live {
		c.tenants[id].live = false
		c.liveTenants--
	}
}

// TenantStats returns the attribution for one tenant: its hits, misses, and
// evictions-suffered, plus the bytes it currently holds resident. Capacity
// is the whole cache's (the partition is soft).
func (c *PageCache) TenantStats(id int) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.tenants) {
		return CacheStats{Capacity: c.capacity}
	}
	t := c.tenants[id]
	return CacheStats{
		Capacity: c.capacity, Used: t.used,
		Hits: t.hits, Misses: t.misses, Evictions: t.evictions,
	}
}

func (c *PageCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *PageCache) pushFront(n *cacheNode) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// Capacity returns the cache's current capacity in bytes, net of any
// ReserveCapacity carve-outs. Callers reserving for a second layer check it
// first so a too-large request can fail before shrinking the cache.
func (c *PageCache) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// ReserveCapacity permanently carves n bytes out of the cache's capacity
// for a second cache layer sharing the same physical memory (the cluster's
// materialized-sample cache), so total simulated memory stays constant and
// the split is explicit rather than double-counted. Entries are evicted
// from the LRU tail until the contents fit the reduced capacity. Returns
// the bytes actually granted: min(n, current capacity), so a caller asking
// for more than the pool holds can detect the shortfall and fail loudly.
func (c *PageCache) ReserveCapacity(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		return 0
	}
	if n > c.capacity {
		n = c.capacity
	}
	c.capacity -= n
	for c.used > c.capacity && c.tail != nil {
		c.evictLocked(c.tail)
	}
	return n
}

// evictLocked removes a node from the cache, attributing the eviction to
// the node's tenant.
func (c *PageCache) evictLocked(n *cacheNode) {
	c.unlink(n)
	delete(c.index, n.key)
	c.used -= n.bytes
	c.evictions++
	if vt := int(n.tenant); vt >= 0 && vt < len(c.tenants) {
		c.tenants[vt].used -= n.bytes
		c.tenants[vt].evictions++
	}
	*n = cacheNode{}
	cacheNodePool.Put(n)
}

// Get reports whether key is cached, marking it most recently used.
// Unattributed traffic; shared sessions use GetAs.
func (c *PageCache) Get(key data.Key) bool { return c.GetAs(0, key) }

// GetAs is Get with the hit or miss attributed to the given tenant.
func (c *PageCache) GetAs(tenant int, key data.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.index[key]; ok {
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		c.hits++
		if tenant >= 0 && tenant < len(c.tenants) {
			c.tenants[tenant].hits++
		}
		return true
	}
	c.misses++
	if tenant >= 0 && tenant < len(c.tenants) {
		c.tenants[tenant].misses++
	}
	return false
}

// Put inserts key with the given size, evicting least-recently-used entries
// until the cache fits. Objects larger than the whole cache are not cached.
// Unattributed traffic; shared sessions use PutAs.
func (c *PageCache) Put(key data.Key, bytes int64) { c.PutAs(0, key, bytes) }

// GetOrBegin is the single-flight entry point of the read-through path: a
// cached key is a hit; an uncached key with no fetch in flight makes the
// caller the leader (hit=false, waiter=nil — the caller must read the
// object and CompleteFetch or AbortFetch); an uncached key already being
// fetched parks the caller as a follower (waiter non-nil — Wait on it,
// then call GetOrBegin again). Followers are attributed a hit when they
// find the completed fetch on re-check; only the leader pays a miss.
func (c *PageCache) GetOrBegin(tenant int, key data.Key, rt *simtime.Virtual) (hit bool, waiter *simtime.Waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.index[key]; ok {
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		c.hits++
		if tenant >= 0 && tenant < len(c.tenants) {
			c.tenants[tenant].hits++
		}
		return true, nil
	}
	if ws, ok := c.inflight[key]; ok {
		w := rt.NewWaiter()
		c.inflight[key] = append(ws, w)
		return false, w
	}
	if c.inflight == nil {
		c.inflight = make(map[data.Key][]*simtime.Waiter)
	}
	c.inflight[key] = nil
	c.misses++
	if tenant >= 0 && tenant < len(c.tenants) {
		c.tenants[tenant].misses++
	}
	return false, nil
}

// CompleteFetch publishes a leader's fetched object and releases the key's
// followers. The disk bytes the fetch moved are attributed to the leader's
// tenant (see TenantDiskBytes).
func (c *PageCache) CompleteFetch(tenant int, key data.Key, bytes int64) {
	c.mu.Lock()
	if tenant >= 0 && tenant < len(c.tenants) {
		c.tenants[tenant].diskBytes += bytes
	}
	c.putAsLocked(tenant, key, bytes)
	ws := c.inflight[key]
	delete(c.inflight, key)
	c.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// TenantDiskBytes returns the disk bytes a tenant's own cache fills have
// read — the per-session answer to "how much disk traffic did I cause" on
// a disk whose global counter mixes every tenant.
func (c *PageCache) TenantDiskBytes(id int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.tenants) {
		return 0
	}
	return c.tenants[id].diskBytes
}

// AbortFetch releases a key's followers without publishing; the next
// reader becomes the new leader.
func (c *PageCache) AbortFetch(key data.Key) {
	c.mu.Lock()
	ws := c.inflight[key]
	delete(c.inflight, key)
	c.mu.Unlock()
	for _, w := range ws {
		w.Wake()
	}
}

// PutAs is Put with the insertion attributed to the given tenant. While
// several tenants are joined, eviction prefers victims belonging to tenants
// over their equal share of the capacity — the inserting tenant's own
// over-share entries first — before falling back to the global LRU tail.
func (c *PageCache) PutAs(tenant int, key data.Key, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putAsLocked(tenant, key, bytes)
}

func (c *PageCache) putAsLocked(tenant int, key data.Key, bytes int64) {
	if bytes > c.capacity {
		return
	}
	if tenant < 0 || tenant >= len(c.tenants) {
		tenant = 0
	}
	if n, ok := c.index[key]; ok {
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return
	}
	for c.used+bytes > c.capacity {
		back := c.victimLocked(tenant)
		if back == nil {
			break
		}
		c.evictLocked(back)
	}
	n := cacheNodePool.Get().(*cacheNode)
	n.key, n.bytes, n.tenant = key, bytes, int32(tenant)
	c.pushFront(n)
	c.index[key] = n
	c.used += bytes
	if len(c.tenants) > 0 {
		c.tenants[tenant].used += bytes
	}
}

// victimLocked picks the next eviction victim for an insertion by tenant.
// Single-tenant caches (the common case) evict the plain LRU tail. With
// multiple joined tenants the scan walks at most partitionScanDepth nodes
// from the tail preferring, in order, the inserting tenant's own entries
// when it is over its equal share, then any over-share tenant's entry; the
// plain tail is the fallback so eviction always makes progress.
func (c *PageCache) victimLocked(tenant int) *cacheNode {
	if c.tail == nil {
		return nil
	}
	if c.liveTenants <= 1 {
		return c.tail
	}
	share := c.capacity / int64(c.liveTenants)
	overSelf := len(c.tenants) > tenant && c.tenants[tenant].used > share
	var anyOver *cacheNode
	n := c.tail
	for i := 0; n != nil && i < partitionScanDepth; i++ {
		vt := int(n.tenant)
		if vt >= 0 && vt < len(c.tenants) && c.tenants[vt].used > share {
			if overSelf && vt == tenant {
				return n
			}
			if anyOver == nil {
				anyOver = n
			}
			if !overSelf {
				return n
			}
		}
		n = n.prev
	}
	if anyOver != nil {
		return anyOver
	}
	return c.tail
}

// CacheStats is a snapshot of cache counters.
type CacheStats struct {
	Capacity, Used          int64
	Hits, Misses, Evictions int64
}

// Stats returns a snapshot of cache counters.
func (c *PageCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity: c.capacity, Used: c.used,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *PageCache) HitRate() float64 {
	s := c.Stats()
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// RemoteFetcher moves n fetched bytes from the storage server to the
// reading node over the cluster interconnect. The multi-node runner
// implements it with a netsim fabric transfer, so cold reads contend with
// gradient traffic on the reading node's NIC; a nil fetcher means storage
// is node-local.
type RemoteFetcher interface {
	Fetch(ctx context.Context, n int64) error
}

// Store is the sample-loading path: page cache over disk. Tenant routes the
// cache traffic for attribution when the cache is shared by several sessions
// (zero — the unattributed tenant — when it is not); each cluster session
// holds its own Store value pointing at the shared disk and cache.
type Store struct {
	Disk   *Disk
	Cache  *PageCache // nil disables caching
	Tenant int
	// Remote, when set, models storage reached over the network: every
	// uncached read pays a fabric transfer (after the disk occupancy) in
	// addition to the disk time — the Lustre-over-interconnect path of §3's
	// Config A, now with real contention.
	Remote RemoteFetcher
	// Trace, when set, records this store's reads as spans: disk occupancy,
	// remote fetches, and the page cache's hit/fill/wait protocol (a
	// follower's wait shares its leader's (Tenant, Key) identity).
	// TraceNode stamps the reading node. Nil disables recording.
	Trace     *trace.Recorder
	TraceNode int32
}

// WithTenant returns a copy of the store routing cache traffic as the given
// tenant.
func (st *Store) WithTenant(id int) *Store {
	cp := *st
	cp.Tenant = id
	return &cp
}

// ReadSample loads a sample's raw bytes, hitting the cache when possible
// and stamping the sample's LoadedAt time. Cache fills are single-flighted:
// the first reader of an uncached key fetches it from disk while concurrent
// readers of the same key — typically sibling sessions warming up over a
// shared dataset — park until the fetch lands and then count a shared hit,
// instead of issuing redundant reads for bytes already on their way.
func (st *Store) ReadSample(ctx context.Context, rt *simtime.Virtual, s *data.Sample) error {
	if st.Cache == nil {
		if err := st.fetch(ctx, rt, s); err != nil {
			return err
		}
		s.LoadedAt = rt.Now()
		return nil
	}
	first := true
	for {
		t0 := rt.Now()
		hit, waiter := st.Cache.GetOrBegin(st.Tenant, s.Key, rt)
		if hit {
			if first {
				// A follower finding the published fill on re-check already
				// recorded its wait; only a first-try hit is an instant.
				st.Trace.Instant(st.span(trace.StageCacheHit, t0, t0, s), t0)
			}
			break
		}
		if waiter == nil { // leader: fetch and publish
			if err := st.fetch(ctx, rt, s); err != nil {
				st.Cache.AbortFetch(s.Key)
				return err
			}
			st.Cache.CompleteFetch(st.Tenant, s.Key, s.RawBytes)
			st.Trace.Record(st.span(trace.StageCacheFill, t0, rt.Now(), s))
			break
		}
		if err := waiter.Wait(ctx); err != nil {
			return err
		}
		st.Trace.Record(st.span(trace.StageCacheWait, t0, rt.Now(), s))
		first = false
	}
	s.LoadedAt = rt.Now()
	return nil
}

// span stamps a storage span for sample s: Key is the sample index, Seq
// its global draw order, Detail its raw size — the identity a follower's
// wait shares with its leader's fill.
func (st *Store) span(stage trace.Stage, start, end time.Duration, s *data.Sample) trace.Span {
	return trace.Span{Start: start, End: end, Stage: stage,
		Tenant: int32(st.Tenant), Node: st.TraceNode,
		Key: int64(s.Index), Seq: s.OriginalOrder, Detail: s.RawBytes}
}

// fetch is the uncached read path: the disk occupancy, then — for remote
// storage — the network transfer to the reading node.
func (st *Store) fetch(ctx context.Context, rt *simtime.Virtual, s *data.Sample) error {
	t0 := rt.Now()
	if err := st.Disk.Read(ctx, s.RawBytes); err != nil {
		return err
	}
	st.Trace.Record(st.span(trace.StageDiskRead, t0, rt.Now(), s))
	if st.Remote != nil {
		t1 := rt.Now()
		if err := st.Remote.Fetch(ctx, s.RawBytes); err != nil {
			return err
		}
		st.Trace.Record(st.span(trace.StageRemoteFetch, t1, rt.Now(), s))
	}
	return nil
}
