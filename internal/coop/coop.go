// Package coop implements the live cooperative cache mesh — the deployed
// twin of the simulator's §VI peers. Nearby regions read chunks out of each
// other's caches at peer latency instead of crossing the WAN; the first-step
// protocol the paper sketches (peers periodically broadcast their contents
// so each node can revalue its caching options) becomes a concrete digest
// exchange here:
//
//   - An Advertiser periodically snapshots the local cache's residency and
//     pushes it to every peer as one or more digest frames (paginated so a
//     large cache never overflows a frame header), each tagged with the
//     advertiser's region and a monotonic sequence number.
//   - A Mirror is the receiving side's view of one peer's residency: digest
//     frames with a higher sequence replace it, frames sharing the current
//     sequence merge into it (the pagination case), and lower sequences are
//     dropped as stale. A Mirror satisfies core.ChunkResidency, so remote
//     digests plug into the cache manager's knapsack accounting exactly
//     like a local simulated peer cache.
//   - A Table collects the mirrors of every peer a node hears from, plus
//     the peer-read counters a cache server exports on /metrics.
//
// Mirrors are advisory by construction: a peer may evict a chunk between
// digests, so every peer read must tolerate a miss and fall back to the
// backend path. The package is transport-free — the live layer injects the
// wire protocol through the Target interface.
package coop

import "sort"

// MaxDigestKeys bounds how many keys one digest frame carries. Frame
// headers are JSON in a u16-length field, so pagination keeps even large
// caches well under the limit; 128 keys of indices is ~4 KB of header.
const MaxDigestKeys = 128

// Digest is one residency advertisement frame: the chunk indices resident
// for each key in the advertiser's cache, or one page of them — or, when
// Delta is set, only the residency changes since a previous snapshot.
type Digest struct {
	// Region is the advertiser's region name.
	Region string
	// Seq orders digests from one advertiser; every page of one snapshot
	// shares the snapshot's Seq.
	Seq int64
	// Groups maps object keys to their resident chunk indices. In a delta
	// frame, only changed keys appear, and an empty (non-nil) index list
	// means the key left the cache entirely.
	Groups map[string][]int
	// Delta marks this frame as a delta over snapshot Base rather than a
	// full replacement. A mirror applies it only when it sits exactly at
	// Base; anything else rejects the frame, and the advertiser falls back
	// to a full digest on the next push.
	Delta bool
	// Base is the sequence the delta's changes are relative to.
	Base int64
	// KeyVers carries the advertiser's highest cached write version
	// (an hlc.Timestamp) per key, for the keys of this frame that have one.
	// Receivers fold these into their version floors, so an invalidation
	// rides the same digest mesh as residency — a mirror whose view of a key
	// predates its floor is dropped rather than served. Nil from unversioned
	// advertisers; such frames never lower a floor.
	KeyVers map[string]uint64
}

// DiffVer computes the residency changes from prev to cur as a delta group
// set: keys whose index set changed map to their new indices, and keys that
// vanished map to an empty slice. Index order is ignored; unchanged keys
// are absent, and an empty diff means the snapshots agree. A key is also
// "changed" when its advertised version moved even though its index set
// did not — the invalidate-then-repopulate case, where the same indices now
// hold newer bytes and a delta that ignored versions would leave peers
// serving the old floor. It returns the changed group set plus the current
// versions of every changed key that has one.
func DiffVer(prev, cur map[string][]int, prevVers, curVers map[string]uint64) (map[string][]int, map[string]uint64) {
	changed := make(map[string][]int)
	for key, idxs := range cur {
		if !sameIndexSet(prev[key], idxs) || prevVers[key] != curVers[key] {
			changed[key] = append([]int(nil), idxs...)
		}
	}
	for key := range prev {
		if _, ok := cur[key]; !ok {
			changed[key] = []int{}
		}
	}
	var vers map[string]uint64
	for key := range changed {
		if v := curVers[key]; v != 0 {
			if vers == nil {
				vers = make(map[string]uint64)
			}
			vers[key] = v
		}
	}
	return changed, vers
}

// sameIndexSet reports whether two index lists hold the same set.
func sameIndexSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

// PaginateDeltaVer splits a delta group set into delta frames of at most
// MaxDigestKeys keys, all sharing seq and base, with per-key versions
// attached to each page (see PaginateVer). An empty change set still
// produces one empty delta frame: the mirror must observe the new sequence
// (and refresh its age) even when nothing moved.
func PaginateDeltaVer(region string, seq, base int64, changes map[string][]int, vers map[string]uint64) []Digest {
	full := PaginateVer(region, seq, changes, vers)
	for i := range full {
		full[i].Delta = true
		full[i].Base = base
	}
	return full
}

// PaginateVer splits a residency snapshot into digest frames of at most
// MaxDigestKeys keys each, all sharing seq. Keys are emitted in sorted
// order so frames are deterministic. An empty snapshot still produces one
// empty frame — receivers must observe the new sequence to drop their
// stale view. Each page carries the write versions of its own keys
// (nonzero entries only), so receivers can raise version floors from
// exactly the frames that mention a key.
func PaginateVer(region string, seq int64, snapshot map[string][]int, vers map[string]uint64) []Digest {
	keys := make([]string, 0, len(snapshot))
	for k := range snapshot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return []Digest{{Region: region, Seq: seq, Groups: map[string][]int{}}}
	}
	var out []Digest
	for start := 0; start < len(keys); start += MaxDigestKeys {
		end := start + MaxDigestKeys
		if end > len(keys) {
			end = len(keys)
		}
		groups := make(map[string][]int, end-start)
		var kv map[string]uint64
		for _, k := range keys[start:end] {
			groups[k] = snapshot[k]
			if v := vers[k]; v != 0 {
				if kv == nil {
					kv = make(map[string]uint64)
				}
				kv[k] = v
			}
		}
		out = append(out, Digest{Region: region, Seq: seq, Groups: groups, KeyVers: kv})
	}
	return out
}
