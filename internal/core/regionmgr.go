package core

import (
	"sync"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// latencyAlpha smooths region latency estimates. Probes are noisy samples
// of WAN latency; a moderate coefficient tracks drift without thrashing.
const latencyAlpha = 0.5

// RegionManager maintains the storage system's topology view (§III-a): the
// regions, the chunk placement policy, and a live per-region estimate of
// how long reading one chunk takes from the local client's vantage point.
// It is safe for concurrent use.
type RegionManager struct {
	client    geo.RegionID
	regions   []geo.RegionID
	placement geo.Placement
	total     int // chunks per object (k+m)

	mu  sync.Mutex
	est map[geo.RegionID]time.Duration
}

// NewRegionManager returns a manager for a node in the client region.
func NewRegionManager(client geo.RegionID, regions []geo.RegionID, placement geo.Placement, total int) *RegionManager {
	if total <= 0 {
		panic("core: region manager needs positive chunk count")
	}
	cp := make([]geo.RegionID, len(regions))
	copy(cp, regions)
	return &RegionManager{
		client:    client,
		regions:   cp,
		placement: placement,
		total:     total,
		est:       make(map[geo.RegionID]time.Duration),
	}
}

// Client returns the region this manager serves.
func (rm *RegionManager) Client() geo.RegionID { return rm.client }

// Observe folds one measured chunk-read latency from the region into the
// estimate (EWMA); the first observation seeds it directly.
func (rm *RegionManager) Observe(region geo.RegionID, d time.Duration) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	cur, ok := rm.est[region]
	if !ok {
		rm.est[region] = d
		return
	}
	rm.est[region] = time.Duration(latencyAlpha*float64(d) + (1-latencyAlpha)*float64(cur))
}

// WarmUp seeds the estimates by probing each region `samples` times with
// the supplied probe function, mirroring the paper's warm-up phase that
// "retrieves several data blocks from each region".
func (rm *RegionManager) WarmUp(probe func(geo.RegionID) time.Duration, samples int) {
	for _, r := range rm.regions {
		for i := 0; i < samples; i++ {
			rm.Observe(r, probe(r))
		}
	}
}

// Estimate returns the current latency estimate for a region (0 if never
// observed).
func (rm *RegionManager) Estimate(region geo.RegionID) time.Duration {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.est[region]
}

// Estimates returns a copy of all current estimates.
func (rm *RegionManager) Estimates() map[geo.RegionID]time.Duration {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make(map[geo.RegionID]time.Duration, len(rm.est))
	for r, d := range rm.est {
		out[r] = d
	}
	return out
}

// Plan computes the nearest-first fetch plan for the object's chunks using
// the current latency estimates.
func (rm *RegionManager) Plan(key string) geo.FetchPlan {
	return rm.planner()(key)
}

// planner snapshots the current latency estimates once and returns Plan
// over that snapshot, for callers that plan many keys in one go.
func (rm *RegionManager) planner() func(key string) geo.FetchPlan {
	rm.mu.Lock()
	m := geo.NewLatencyMatrix(rm.matrixSizeLocked())
	for r, d := range rm.est {
		m.Set(rm.client, r, d)
	}
	rm.mu.Unlock()
	return func(key string) geo.FetchPlan {
		return geo.PlanFetch(m, rm.placement, key, rm.total, rm.client)
	}
}

func (rm *RegionManager) matrixSizeLocked() int {
	maxID := int(rm.client)
	for _, r := range rm.regions {
		if int(r) > maxID {
			maxID = int(r)
		}
	}
	return maxID + 1
}
