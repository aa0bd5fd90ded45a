package scenario

import "time"

// Library returns the built-in scenario suite, in run order. Every spec
// validates; the suite covers the ROADMAP's scenario matrix: steady state,
// WAN degradation, partitions, overload, popularity shifts, region failure,
// flash crowds and cache loss.
func Library() []Spec {
	return []Spec{
		{
			Name:        "baseline",
			Description: "Steady Zipfian traffic from Frankfurt: the control arm every other scenario is read against.",
			Region:      "frankfurt",
			Phases: []Phase{
				{Name: "ramp", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "steady", Duration: 4 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "degraded-latency",
			Description: "Every WAN link out of Frankfurt slows 2.5x mid-run (a transit brownout), then recovers.",
			Region:      "frankfurt",
			Phases: []Phase{
				{Name: "normal", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "degraded", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
					Events: []Event{{Kind: EventLatencyShift, From: "frankfurt", To: "*", Factor: 2.5}}},
				{Name: "recovered", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "partition",
			Description: "Frankfurt loses its link to Dublin (its nearest remote region); reads must detour to further chunks until the partition heals.",
			Region:      "frankfurt",
			Phases: []Phase{
				{Name: "normal", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "partitioned", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
					Events: []Event{{Kind: EventPartition, From: "frankfurt", To: "dublin"}}},
				{Name: "healed", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "high-load",
			Description: "Sydney under overload: six client threads, skew tightening to 1.4 over a uniform scan background, and a flash crowd on the hottest keys.",
			Region:      "sydney",
			Clients:     6,
			Phases: []Phase{
				{Name: "ramp", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "surge", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadMix, Components: []MixComponent{
					{Weight: 0.85, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.4}},
					{Weight: 0.15, Workload: Workload{Kind: WorkloadUniform}},
				}},
					Events: []Event{{Kind: EventFlashCrowd, HotLo: 0, HotHi: 30, HotFrac: 0.4}}},
				{Name: "cooldown", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "diurnal-shift",
			Description: "The hot set moves across the key space as the day turns: morning and evening hotspots, then a flat overnight scan.",
			Region:      "frankfurt",
			Phases: []Phase{
				{Name: "morning", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadHotspot, HotLo: 0, HotHi: 60, HotFrac: 0.8}},
				{Name: "evening", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadHotspot, HotLo: 150, HotHi: 210, HotFrac: 0.8}},
				{Name: "night", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadUniform}},
			},
		},
		{
			Name:        "region-failover",
			Description: "Tokyo goes dark for three minutes as seen from Sydney (its nearest chunk source), then recovers.",
			Region:      "sydney",
			Phases: []Phase{
				{Name: "normal", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "outage", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
					Events: []Event{{Kind: EventRegionOutage, Region: "tokyo"}}},
				{Name: "recovered", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "flash-crowd",
			Description: "A cold key range goes viral for ninety seconds over otherwise steady traffic, then interest collapses.",
			Region:      "frankfurt",
			Phases: []Phase{
				{Name: "calm", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "spike", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
					Events: []Event{{Kind: EventFlashCrowd, At: 10 * time.Second, Duration: 90 * time.Second, HotLo: 200, HotHi: 230, HotFrac: 0.7}}},
				{Name: "settle", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "cache-contention",
			Description: "Twelve client threads from Dublin converge on one region's cache: a tight hot set that fits in cache entirely, so the run is bounded by the cache data plane rather than the WAN.",
			Region:      "dublin",
			Clients:     12,
			Phases: []Phase{
				{Name: "warm", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.3}},
				{Name: "hammer", Duration: 4 * time.Minute, Workload: Workload{Kind: WorkloadHotspot, HotLo: 0, HotHi: 24, HotFrac: 0.95},
					Events: []Event{{Kind: EventFlashCrowd, At: 60 * time.Second, Duration: 2 * time.Minute, HotLo: 0, HotHi: 8, HotFrac: 0.6}}},
				{Name: "cooldown", Duration: time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
			},
		},
		{
			Name:        "coop-peering",
			Description: "Frankfurt and Dublin peer their caches (§VI): both regions hammer a shared hot set, so Frankfurt reads Dublin-resident chunks at peer latency instead of crossing the WAN and spends its own slots on uncovered chunks.",
			Region:      "frankfurt",
			PeerRegions: []string{"dublin"},
			Phases: []Phase{
				{Name: "warm", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.2}},
				{Name: "shared-hot", Duration: 4 * time.Minute, Workload: Workload{Kind: WorkloadHotspot, HotLo: 0, HotHi: 40, HotFrac: 0.85}},
				{Name: "drift", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadHotspot, HotLo: 120, HotHi: 160, HotFrac: 0.85}},
			},
		},
		{
			Name: "backend-tier",
			Description: "The same Frankfurt workload swept across blob-store tiers: the in-memory baseline " +
				"against a slow, bandwidth-capped, occasionally failing remote tier — with a mid-run Dublin " +
				"outage forcing degraded reads through the slow tier. Measures how far the cache absorbs " +
				"backend latency (arms are labelled Arm@tier).",
			Region:     "frankfurt",
			StoreTiers: []string{"mem", "remote-slow"},
			Phases: []Phase{
				{Name: "warm", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "steady", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "outage", Duration: 2 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
					Events: []Event{{Kind: EventRegionOutage, Region: "dublin"}}},
			},
		},
		{
			Name: "workload-mix-a",
			Description: "YCSB workload A (50% reads, 50% updates) on a Zipfian hot set, run coherence-paired: " +
				"every arm appears twice, once with versioned write invalidation and once as an Arm!stale twin " +
				"whose caches keep serving superseded payloads — the stale-read column prices the write path.",
			Region:    "frankfurt",
			Coherence: CoherencePaired,
			Phases: []Phase{
				{Name: "warm", Duration: 90 * time.Second, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "update-heavy", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}, Updates: 0.5},
				{Name: "read-recovery", Duration: 90 * time.Second, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}, Updates: 0.05},
			},
		},
		{
			Name: "workload-mix-b",
			Description: "YCSB workload B (95% reads, 5% updates): mostly-read traffic where even rare writes " +
				"poison a cache that is never invalidated; paired coherence modes show how little staleness a " +
				"read-mostly mix tolerates.",
			Region:    "frankfurt",
			Coherence: CoherencePaired,
			Phases: []Phase{
				{Name: "warm", Duration: 90 * time.Second, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "read-mostly", Duration: 4 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}, Updates: 0.05},
			},
		},
		{
			Name: "workload-mix-f",
			Description: "YCSB workload F (50% reads, 50% read-modify-writes) on a Zipfian hot set: every RMW " +
				"reads the object it is about to overwrite, so an uncoherent cache feeds its own writes stale " +
				"inputs — the worst case for skipping invalidation.",
			Region:    "frankfurt",
			Coherence: CoherencePaired,
			Phases: []Phase{
				{Name: "warm", Duration: 90 * time.Second, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "rmw", Duration: 3 * time.Minute, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}, RMW: 0.5},
			},
		},
		{
			Name:        "cache-crash",
			Description: "The region's cache server restarts empty ten seconds into the second phase; the run shows each policy re-warming.",
			Region:      "frankfurt",
			Phases: []Phase{
				{Name: "steady", Duration: 150 * time.Second, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1}},
				{Name: "crash", Duration: 150 * time.Second, Workload: Workload{Kind: WorkloadZipfian, Skew: 1.1},
					Events: []Event{{Kind: EventCacheCrash, At: 10 * time.Second}}},
			},
		},
	}
}

// Lookup finds a built-in scenario by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Library() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
