package store

import (
	"fmt"
	"strings"
	"time"
)

// Tier is the modelled performance envelope of one blob-store tier — what
// the simulator charges a backend chunk fetch on top of the WAN latency
// matrix (whose baseline already includes the paper's S3 service time).
// The scenario runner sweeps tiers to measure how far the cache and
// degraded reads absorb a slower or flakier storage layer; the live stack
// realises the same envelopes with the Chaos wrapper and netsim bandwidth
// caps.
type Tier struct {
	// Name is the tier's identifier ("mem", "disk", "remote", ...).
	Name string
	// Latency is the extra per-chunk service time over the baseline tier.
	Latency time.Duration
	// ErrRate is the transient per-chunk failure probability; a failed
	// fetch costs its full latency and triggers chunk substitution, like a
	// region outage but without blacklisting the region.
	ErrRate float64
	// BandwidthBps caps the tier's per-link transfer rate in bytes/second;
	// zero means uncapped. Transfers add size/bandwidth on top of latency.
	BandwidthBps int64
}

// The built-in tiers. The baseline "mem" tier is the paper's deployment
// exactly as PR 3 modelled it; the others layer service time, failure
// probability and bandwidth ceilings typical of their storage class.
var tiers = []Tier{
	{Name: KindMem},
	{Name: KindDisk, Latency: 2 * time.Millisecond},
	{Name: KindRemote, Latency: 12 * time.Millisecond},
	{Name: "remote-slow", Latency: 60 * time.Millisecond, ErrRate: 0.02, BandwidthBps: 6 << 20},
	{Name: "remote-flaky", Latency: 20 * time.Millisecond, ErrRate: 0.08},
}

// TierNames lists the built-in tier names.
func TierNames() []string {
	out := make([]string, len(tiers))
	for i, t := range tiers {
		out[i] = t.Name
	}
	return out
}

// ParseTier resolves a tier name; the empty name is the "mem" baseline.
func ParseTier(name string) (Tier, error) {
	if name == "" {
		return tiers[0], nil
	}
	for _, t := range tiers {
		if t.Name == name {
			return t, nil
		}
	}
	return Tier{}, fmt.Errorf("store: unknown tier %q (want %s)", name, strings.Join(TierNames(), "|"))
}

// Baseline reports whether the tier adds nothing over the paper's modelled
// deployment — the fast path the simulator keeps bit-exact with PR 3.
func (t Tier) Baseline() bool {
	return t.Latency == 0 && t.ErrRate == 0 && t.BandwidthBps == 0
}
