package core

import (
	"sort"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
)

// ChunkResidency is the narrow view of a peer cache the cooperative
// accounting needs: which chunks of an object the peer holds. Both local
// caches (*cache.Cache, the simulator's peers) and remote digest mirrors
// (coop.Mirror, fed by the live digest protocol) satisfy it, so the cache
// manager values peer-covered chunks the same way regardless of whether
// the peer is in-process or across a WAN link.
type ChunkResidency interface {
	// IndicesOf returns the peer's resident chunk indices for a key.
	IndicesOf(key string) []int
	// Contains reports single-chunk residency without counting an access.
	Contains(id cache.EntryID) bool
}

// PeerInfo describes a nearby Agar cache this node cooperates with (§VI):
// clients of this region can read chunks out of the peer's cache at
// Latency, typically far below the chunks' home-region cost. The first-step
// protocol the paper sketches — peers periodically broadcast their contents
// so each node can revalue its caching options — corresponds to the cache
// manager consulting the peer's residency when it generates options.
type PeerInfo struct {
	// Region is the peer's region.
	Region geo.RegionID
	// Store is the peer cache's residency view: the cache itself for local
	// simulated peers, a digest mirror for live remote ones.
	Store ChunkResidency
	// Latency is the chunk-read latency from local clients to the peer's
	// cache.
	Latency time.Duration
}

// AddPeer registers a cooperative peer cache with the node.
func (n *Node) AddPeer(region geo.RegionID, store ChunkResidency, latency time.Duration) {
	n.manager.addPeer(PeerInfo{Region: region, Store: store, Latency: latency})
}

func (cm *CacheManager) addPeer(p PeerInfo) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.peers = append(cm.peers, p)
}

// Peers returns a copy of the manager's peer list.
func (cm *CacheManager) Peers() []PeerInfo {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	out := make([]PeerInfo, len(cm.peers))
	copy(out, cm.peers)
	return out
}

// peerResidency returns, for one object, the chunks resident in the peers'
// caches and the cheapest peer latency for each.
func peerResidency(peers []PeerInfo, key string) map[int]PeerInfo {
	if len(peers) == 0 {
		return nil
	}
	out := make(map[int]PeerInfo)
	for _, p := range peers {
		for _, idx := range p.Store.IndicesOf(key) {
			cur, ok := out[idx]
			if !ok || p.Latency < cur.Latency {
				out[idx] = p
			}
		}
	}
	return out
}

// adjustPlanForPeers lowers the effective latency of chunks resident in
// peer caches and re-sorts the plan, so option values reflect that those
// chunks are already cheap without local caching.
func adjustPlanForPeers(plan geo.FetchPlan, resident map[int]PeerInfo) geo.FetchPlan {
	if len(resident) == 0 {
		return plan
	}
	n := len(plan.Chunks)
	type entry struct {
		chunk  int
		region geo.RegionID
		lat    int64
	}
	entries := make([]entry, n)
	for i := 0; i < n; i++ {
		e := entry{chunk: plan.Chunks[i], region: plan.Region[i], lat: plan.Latency[i]}
		if p, ok := resident[e.chunk]; ok && int64(p.Latency) < e.lat {
			e.lat = int64(p.Latency)
			e.region = p.Region
		}
		entries[i] = e
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].lat != entries[b].lat {
			return entries[a].lat < entries[b].lat
		}
		return entries[a].chunk < entries[b].chunk
	})
	out := geo.FetchPlan{
		Chunks:  make([]int, n),
		Region:  make([]geo.RegionID, n),
		Latency: make([]int64, n),
	}
	for i, e := range entries {
		out.Chunks[i] = e.chunk
		out.Region[i] = e.region
		out.Latency[i] = e.lat
	}
	return out
}
