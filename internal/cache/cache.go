// Package cache implements the byte-bounded in-memory chunk cache Agar and
// its baselines run against — the stand-in for the paper's memcached
// deployment.
//
// Cache items are erasure-coded chunks identified by (object key, chunk
// index), matching how the paper's prototype stores data in memcached.
// Eviction is pluggable: LRU and LFU reproduce the baseline policies of §V,
// and the Pinned policy gives Agar's cache manager full manual control.
//
// The store is internally sharded, the way memcached stripes its hash table
// and LRU locks: entries hash to one of N power-of-two shards, each with
// its own mutex, policy instance and byte budget, so concurrent chunk
// operations on different shards never contend. New builds the single-shard
// cache (exact global eviction order, the semantics the simulator and the
// knapsack manager were written against); NewSharded fans the same engine
// out for heavy client fan-in.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by the cache.
var (
	ErrTooLarge  = errors.New("cache: item larger than cache capacity")
	ErrCacheFull = errors.New("cache: full and the policy refuses eviction")
	ErrNotFound  = errors.New("cache: not found")
)

// EntryID identifies one cached chunk.
type EntryID struct {
	Key   string // object key
	Index int    // chunk index within the object
}

// String renders the id in "key#index" form.
func (id EntryID) String() string { return fmt.Sprintf("%s#%d", id.Key, id.Index) }

// entry is one resident chunk.
type entry struct {
	id   EntryID
	data []byte
	// ver is the hybrid-logical-clock version the chunk was written at
	// (hlc.Timestamp as a uint64); zero for unversioned chunks. The cache
	// stores it verbatim — admission against version floors is the caller's
	// job (coherence.VersionTable on live servers).
	ver uint64

	// intrusive LRU list links (also reused as the per-frequency list by LFU)
	prev, next *entry
	freq       int64
}

// Policy decides which resident entry to evict. Implementations are not
// safe for concurrent use; each shard serialises all calls to its own
// policy instance under the shard lock.
type Policy interface {
	// Name returns the policy's short name ("lru", "lfu", "pinned").
	Name() string
	// Added notifies the policy of a newly inserted entry.
	Added(e *entry)
	// Accessed notifies the policy that an entry was read.
	Accessed(e *entry)
	// Removed notifies the policy that an entry left the cache.
	Removed(e *entry)
	// Victim returns the entry to evict next, or nil to refuse eviction.
	Victim() *entry
}

// Stats counts cache-level events. Hit accounting at object granularity
// (full vs partial hits, Figure 7) lives in the client, which knows how many
// chunks it asked for.
type Stats struct {
	Gets      int64 // chunk lookups
	Hits      int64 // chunk lookups that found the chunk
	Sets      int64 // successful inserts (including overwrites)
	Evictions int64 // entries evicted to make room
	// AdmissionRejects counts inserts dropped by the admission filter
	// (chunks outside the active knapsack configuration).
	AdmissionRejects int64
	// FullRejects counts inserts refused because the cache was full and the
	// policy declined to evict (Pinned under explicit management).
	FullRejects int64
}

// Rejected returns the total refused inserts, both admission-filter drops
// and policy refusals.
func (s Stats) Rejected() int64 { return s.AdmissionRejects + s.FullRejects }

// counters is the shard-local atomic form of Stats: shards bump counters
// without coordinating, and Stats() folds them lock-free.
type counters struct {
	gets, hits, sets, evictions   atomic.Int64
	admissionRejects, fullRejects atomic.Int64
}

// shard is one stripe of the cache: a private mutex, policy instance and
// byte budget over a slice of the entry space.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	policy   Policy
	entries  map[EntryID]*entry
	byKey    map[string]map[int]*entry // object key -> chunk index -> entry
	admit    func(EntryID) bool
	stats    counters
}

// Cache is a byte-bounded chunk store with pluggable eviction. It is safe
// for concurrent use. Entries stripe over power-of-two shards by
// hash(EntryID); object-level operations (GetObject, Snapshot,
// DeleteObject, IndicesOf) aggregate across shards.
type Cache struct {
	shards   []*shard
	capacity int64
}

// New returns a single-shard cache bounded to capacity bytes under the
// given policy: one lock, one policy instance, exact global eviction order.
func New(capacity int64, policy Policy) *Cache {
	if policy == nil {
		panic("cache: nil policy")
	}
	return NewSharded(capacity, 1, func() Policy { return policy })
}

// NewSharded returns a cache striped over the given number of shards, each
// with its own lock, its own policy instance from newPolicy, and an equal
// slice of the byte capacity. The shard count is rounded up to a power of
// two and clamped so every shard keeps a positive budget. Per-shard
// capacity means an insert can be refused when its shard is full even if
// other shards have room — the same trade memcached's striped LRU makes.
func NewSharded(capacity int64, shards int, newPolicy func() Policy) *Cache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	if newPolicy == nil {
		panic("cache: nil policy factory")
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for int64(n) > capacity { // keep every shard's budget positive
		n >>= 1
	}
	c := &Cache{shards: make([]*shard, n), capacity: capacity}
	base := capacity / int64(n)
	extra := capacity % int64(n)
	for i := range c.shards {
		cap := base
		if int64(i) < extra {
			cap++
		}
		p := newPolicy()
		if p == nil {
			panic("cache: policy factory returned nil")
		}
		c.shards[i] = &shard{
			capacity: cap,
			policy:   p,
			entries:  make(map[EntryID]*entry),
			byKey:    make(map[string]map[int]*entry),
		}
	}
	return c
}

// stripeIndex returns the shard an id stripes to in a power-of-two stripe
// space of the given size: FNV-1a over the key bytes and chunk index, masked
// to shards-1. shards must be a power of two; shards <= 1 always returns 0.
func stripeIndex(id EntryID, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id.Key); i++ {
		h ^= uint64(id.Key[i])
		h *= prime64
	}
	h ^= uint64(uint32(id.Index))
	h *= prime64
	return int(h & uint64(shards-1))
}

// ShardIndex returns the index of the shard the id lives on in this cache —
// stripeIndex over the cache's own shard count.
func (c *Cache) ShardIndex(id EntryID) int {
	return stripeIndex(id, len(c.shards))
}

// shardFor routes an id to its shard.
func (c *Cache) shardFor(id EntryID) *shard {
	return c.shards[stripeIndex(id, len(c.shards))]
}

// SetAdmission installs an admission filter: inserts for ids the filter
// rejects are dropped (counted in Stats.AdmissionRejects). A nil filter
// admits everything. The filter must be safe for concurrent use; it is
// installed on every shard.
func (c *Cache) SetAdmission(f func(EntryID) bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.admit = f
		s.mu.Unlock()
	}
}

// Capacity returns the configured byte capacity (summed over shards).
func (c *Cache) Capacity() int64 { return c.capacity }

// ShardCount returns how many shards the cache stripes over.
func (c *Cache) ShardCount() int { return len(c.shards) }

// Used returns the bytes currently resident across all shards.
func (c *Cache) Used() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}

// Len returns the number of resident chunks across all shards.
func (c *Cache) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Stats returns a snapshot of the event counters, folded across shards
// without taking any shard lock.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		out.Gets += s.stats.gets.Load()
		out.Hits += s.stats.hits.Load()
		out.Sets += s.stats.sets.Load()
		out.Evictions += s.stats.evictions.Load()
		out.AdmissionRejects += s.stats.admissionRejects.Load()
		out.FullRejects += s.stats.fullRejects.Load()
	}
	return out
}

// Get returns a copy of the chunk's bytes, or ErrNotFound.
func (c *Cache) Get(id EntryID) ([]byte, error) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.gets.Add(1)
	e, ok := s.entries[id]
	if !ok {
		return nil, ErrNotFound
	}
	s.stats.hits.Add(1)
	s.policy.Accessed(e)
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out, nil
}

// GetAppend appends the chunk's bytes to dst and reports whether the chunk
// was resident, counting the lookup exactly like Get. The copy happens
// under the shard lock into caller-owned storage, so a batched read can
// collect every found chunk into one reusable buffer instead of allocating
// per chunk — the cache server's pooled mget reply path. The returned
// slice is dst extended (reallocated by append when dst lacks capacity);
// on a miss dst is returned unchanged.
func (c *Cache) GetAppend(id EntryID, dst []byte) ([]byte, bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.gets.Add(1)
	e, ok := s.entries[id]
	if !ok {
		return dst, false
	}
	s.stats.hits.Add(1)
	s.policy.Accessed(e)
	return append(dst, e.data...), true
}

// GetAppendVer is GetAppend plus the chunk's stored version: it appends
// the chunk's bytes to dst and returns the extended slice, the chunk's
// write version (zero for unversioned chunks and on a miss), and whether
// the chunk was resident. The cache server's versioned mget reply path.
func (c *Cache) GetAppendVer(id EntryID, dst []byte) ([]byte, uint64, bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.gets.Add(1)
	e, ok := s.entries[id]
	if !ok {
		return dst, 0, false
	}
	s.stats.hits.Add(1)
	s.policy.Accessed(e)
	return append(dst, e.data...), e.ver, true
}

// MeanEntryBytes estimates the average resident chunk size — resident
// bytes over resident entries, folded across shards without locking. Zero
// before anything is cached. The live server sizes pooled reply buffers
// and byte-threshold batch-split decisions from it.
func (c *Cache) MeanEntryBytes() int {
	var used, n int64
	for _, s := range c.shards {
		s.mu.Lock()
		used += s.used
		n += int64(len(s.entries))
		s.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return int(used / n)
}

// Contains reports chunk residency without counting as an access.
func (c *Cache) Contains(id EntryID) bool {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// GetObject returns copies of every resident chunk of the object, keyed by
// chunk index. Each returned chunk counts as one access. The map is empty
// (never nil) when nothing is resident. Shards are visited in turn, so the
// view is per-shard consistent, not a global atomic snapshot.
func (c *Cache) GetObject(key string) map[int][]byte {
	out := make(map[int][]byte)
	for _, s := range c.shards {
		s.mu.Lock()
		for idx, e := range s.byKey[key] {
			s.stats.gets.Add(1)
			s.stats.hits.Add(1)
			s.policy.Accessed(e)
			buf := make([]byte, len(e.data))
			copy(buf, e.data)
			out[idx] = buf
		}
		s.mu.Unlock()
	}
	return out
}

// IndicesOf returns the sorted chunk indices of the object that are
// resident, without counting accesses.
func (c *Cache) IndicesOf(key string) []int {
	var out []int
	for _, s := range c.shards {
		s.mu.Lock()
		for idx := range s.byKey[key] {
			out = append(out, idx)
		}
		s.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

// Put inserts (or overwrites) a chunk, evicting within its shard under the
// shard's policy until it fits. The data is copied. It returns ErrTooLarge
// if the item alone exceeds the shard's capacity, and ErrCacheFull if the
// policy refuses to evict.
func (c *Cache) Put(id EntryID, data []byte) error {
	return c.PutVer(id, data, 0)
}

// PutVer inserts a chunk stamped with its write version (zero for
// unversioned, identical to Put). The version is stored verbatim; callers
// that enforce a version floor check admission before inserting.
func (c *Cache) PutVer(id EntryID, data []byte, ver uint64) error {
	s := c.shardFor(id)
	size := int64(len(data))
	if size > s.capacity {
		return ErrTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.admit != nil && !s.admit(id) {
		s.stats.admissionRejects.Add(1)
		return nil
	}

	if old, ok := s.entries[id]; ok {
		s.removeLocked(old)
	}

	for s.used+size > s.capacity {
		victim := s.policy.Victim()
		if victim == nil {
			s.stats.fullRejects.Add(1)
			return ErrCacheFull
		}
		s.stats.evictions.Add(1)
		s.removeLocked(victim)
	}

	e := &entry{id: id, data: append([]byte(nil), data...), ver: ver}
	s.entries[id] = e
	chunks := s.byKey[id.Key]
	if chunks == nil {
		chunks = make(map[int]*entry)
		s.byKey[id.Key] = chunks
	}
	chunks[id.Index] = e
	s.used += size
	s.policy.Added(e)
	s.stats.sets.Add(1)
	return nil
}

// Delete removes a chunk if resident and reports whether it was.
func (c *Cache) Delete(id EntryID) bool {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return false
	}
	s.removeLocked(e)
	return true
}

// DeleteObject removes every resident chunk of the object and returns how
// many were removed.
func (c *Cache) DeleteObject(key string) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.byKey[key] {
			s.removeLocked(e)
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// DropObjectBelow removes every resident chunk of the object whose stored
// version is older than ver — including unversioned (version-zero) chunks,
// which by definition predate any versioned write — and returns how many
// were removed. Chunks at or above ver stay. This is the cache half of
// applying an invalidation: raise the floor, then drop what the floor now
// excludes.
func (c *Cache) DropObjectBelow(key string, ver uint64) int {
	if ver == 0 {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.byKey[key] {
			if e.ver < ver {
				s.removeLocked(e)
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Clear empties the cache.
func (c *Cache) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			s.removeLocked(e)
		}
		s.mu.Unlock()
	}
}

// Snapshot returns, for every resident object, its sorted resident chunk
// indices. This is the raw material of the paper's Figure 10. The view is
// per-shard consistent, not a global atomic snapshot.
func (c *Cache) Snapshot() map[string][]int {
	out := make(map[string][]int)
	for _, s := range c.shards {
		s.mu.Lock()
		for key, chunks := range s.byKey {
			for idx := range chunks {
				out[key] = append(out[key], idx)
			}
		}
		s.mu.Unlock()
	}
	for _, idxs := range out {
		sort.Ints(idxs)
	}
	return out
}

// SnapshotVer returns the Snapshot view plus, for every resident object
// that carries any versioned chunk, the newest chunk version — the raw
// material of version-carrying digests. Objects whose chunks are all
// unversioned do not appear in the version map.
func (c *Cache) SnapshotVer() (map[string][]int, map[string]uint64) {
	groups := make(map[string][]int)
	vers := make(map[string]uint64)
	for _, s := range c.shards {
		s.mu.Lock()
		for key, chunks := range s.byKey {
			for idx, e := range chunks {
				groups[key] = append(groups[key], idx)
				if e.ver > vers[key] {
					vers[key] = e.ver
				}
			}
		}
		s.mu.Unlock()
	}
	for _, idxs := range groups {
		sort.Ints(idxs)
	}
	return groups, vers
}

func (s *shard) removeLocked(e *entry) {
	delete(s.entries, e.id)
	if chunks := s.byKey[e.id.Key]; chunks != nil {
		delete(chunks, e.id.Index)
		if len(chunks) == 0 {
			delete(s.byKey, e.id.Key)
		}
	}
	s.used -= int64(len(e.data))
	s.policy.Removed(e)
}
