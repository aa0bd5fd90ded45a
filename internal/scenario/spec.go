// Package scenario is the chaos and benchmark orchestration subsystem: it
// declares multi-phase experiment scenarios (workload mixes, key-popularity
// shifts, and chaos events such as latency degradation, partitions, region
// outages, cache crashes and flash crowds), executes them on the in-process
// simulator's virtual clock for every cache-policy arm (Agar knapsack, LRU,
// LFU, pinned-fixed, backend), and reports per-phase/per-arm latency and
// hit-ratio metrics as JSON and markdown with paired deltas.
//
// A Spec is pure data: phases play back on a virtual timeline, so "five
// minutes" of scenario time costs only the operations that fit in it. Chaos
// events compile onto a netsim.Schedule, making them first-class network
// conditions rather than test hacks.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/store"
)

// WorkloadKind names a key-popularity distribution.
type WorkloadKind string

// Workload kinds.
const (
	// WorkloadZipfian is the paper's default YCSB-style distribution.
	WorkloadZipfian WorkloadKind = "zipfian"
	// WorkloadScrambled is Zipfian popularity scattered over the key space.
	WorkloadScrambled WorkloadKind = "scrambled-zipfian"
	// WorkloadUniform draws keys uniformly.
	WorkloadUniform WorkloadKind = "uniform"
	// WorkloadHotspot sends HotFrac of traffic into the key range
	// [HotLo, HotHi) and the rest uniformly over the whole space.
	WorkloadHotspot WorkloadKind = "hotspot"
	// WorkloadLatest skews towards the most recently inserted keys.
	WorkloadLatest WorkloadKind = "latest"
	// WorkloadMix draws each request from one of its weighted component
	// workloads — e.g. 80% Zipfian reads over a 20% uniform scan.
	WorkloadMix WorkloadKind = "mix"
)

// Workload declares one phase's request distribution.
type Workload struct {
	Kind WorkloadKind `json:"kind"`
	// Skew is the Zipfian exponent (zipfian, scrambled-zipfian, latest).
	Skew float64 `json:"skew,omitempty"`
	// HotFrac, HotLo, HotHi parameterise the hotspot distribution.
	HotFrac float64 `json:"hot_frac,omitempty"`
	HotLo   int     `json:"hot_lo,omitempty"`
	HotHi   int     `json:"hot_hi,omitempty"`
	// Components parameterise the mix distribution.
	Components []MixComponent `json:"components,omitempty"`
}

// MixComponent is one weighted member of a mix workload.
type MixComponent struct {
	// Weight is the component's share of the traffic (any positive scale).
	Weight float64 `json:"weight"`
	// Workload is the component distribution (nesting mixes is rejected).
	Workload Workload `json:"workload"`
}

// Coherence modes for mutating scenarios (Spec.Coherence).
const (
	// CoherenceVersioned invalidates caches on every write (the default).
	CoherenceVersioned = "versioned"
	// CoherenceNone leaves caches stale after writes — the baseline arm
	// that shows what the versioned path prevents.
	CoherenceNone = "none"
	// CoherencePaired runs every arm under both modes in one report.
	CoherencePaired = "paired"
)

// StaleSuffix marks the uncoherent twin of an arm in a paired run's
// labels ("Agar!stale").
const StaleSuffix = "!stale"

// EventKind names a chaos event.
type EventKind string

// Event kinds.
const (
	// EventLatencyShift rescales link latencies for a window: every link
	// matching (From, To) costs base*Factor + Add. "*" (or empty) matches
	// any region on either side.
	EventLatencyShift EventKind = "latency-shift"
	// EventPartition severs the (From, To) link pair in both directions.
	EventPartition EventKind = "partition"
	// EventRegionOutage isolates Region entirely: every link into and out
	// of it fails, as when a region's storage service goes dark.
	EventRegionOutage EventKind = "region-outage"
	// EventCacheCrash empties the arm's cache at the event instant — a
	// cache-server restart losing all resident chunks.
	EventCacheCrash EventKind = "cache-crash"
	// EventFlashCrowd redirects HotFrac of requests into the key range
	// [HotLo, HotHi) for the window, overlaying the phase workload.
	EventFlashCrowd EventKind = "flash-crowd"
	// EventBandwidthCap caps matching links to BPS bytes/second for the
	// window — a storage-tier brownout: chunk-sized transfers pay extra,
	// size-dependent latency until the window closes. "*" (or empty)
	// matches any region on either side.
	EventBandwidthCap EventKind = "bandwidth-cap"
)

// Event is one chaos event inside a phase. At is the offset from the phase
// start; Duration zero means the event stays active until the phase ends
// (instantaneous kinds such as cache-crash ignore Duration).
type Event struct {
	Kind     EventKind     `json:"kind"`
	At       time.Duration `json:"at"`
	Duration time.Duration `json:"duration,omitempty"`
	// From and To name link endpoints for latency-shift and partition
	// events ("*" or "" is a wildcard for latency-shift).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Region names the target of a region-outage.
	Region string `json:"region,omitempty"`
	// Factor and Add parameterise latency-shift (latency = base*Factor+Add;
	// Factor zero means 1).
	Factor float64       `json:"factor,omitempty"`
	Add    time.Duration `json:"add,omitempty"`
	// HotLo, HotHi and HotFrac parameterise flash-crowd.
	HotLo   int     `json:"hot_lo,omitempty"`
	HotHi   int     `json:"hot_hi,omitempty"`
	HotFrac float64 `json:"hot_frac,omitempty"`
	// BPS is the bytes/second ceiling for bandwidth-cap.
	BPS int64 `json:"bps,omitempty"`
}

// Phase is one named segment of a scenario's virtual timeline.
type Phase struct {
	Name string `json:"name"`
	// Duration is virtual time: the runner executes operations until the
	// virtual clock has advanced this far.
	Duration time.Duration `json:"duration"`
	Workload Workload      `json:"workload"`
	// Updates is the fraction of operations that are blind updates of the
	// drawn key (YCSB A = 0.5, YCSB B = 0.05). The runner's mutator writes
	// a fresh self-describing payload and tracks it as the key's authority
	// for stale-read accounting.
	Updates float64 `json:"updates,omitempty"`
	// RMW is the fraction of operations that are read-modify-writes — a
	// read followed by an update of the same key (YCSB F). Updates+RMW
	// must not exceed 1.
	RMW    float64 `json:"rmw,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Spec declares one complete scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Region is the client region (default frankfurt).
	Region string `json:"region,omitempty"`
	// PeerRegions lists regions whose caches cooperate with the client
	// region (§VI): each runs its own Agar node on the same workload, the
	// nodes peer symmetrically, and the measured region reads peer-covered
	// chunks at peer latency instead of crossing the WAN. Only the agar arm
	// has a node to peer; other arms ignore the mesh.
	PeerRegions []string `json:"peer_regions,omitempty"`
	// Objects sizes the working set (default 300, the paper's).
	Objects int `json:"objects,omitempty"`
	// CacheMB sizes every arm's cache in paper megabytes (default 10).
	CacheMB float64 `json:"cache_mb,omitempty"`
	// CacheChunks is the fixed chunks-per-object c for the LRU/LFU/Fixed
	// arms (default 3).
	CacheChunks int `json:"cache_chunks,omitempty"`
	// Clients models concurrent client threads (default 2).
	Clients int `json:"clients,omitempty"`
	// BackendStore names the blob-store tier every arm's backend fetches
	// pay for ("mem" — the default — models the paper's deployment exactly;
	// see store.TierNames for the rest). Mutually exclusive with
	// StoreTiers.
	BackendStore string `json:"backend_store,omitempty"`
	// StoreTiers sweeps the scenario across blob-store tiers: every arm
	// runs once per tier, reported as "Arm@tier", so the paired deltas show
	// how far caching absorbs a slower or flakier storage layer.
	StoreTiers []string `json:"store_tiers,omitempty"`
	// Coherence selects how a mutating scenario (any phase with Updates or
	// RMW) keeps caches coherent. "versioned" — the default — models the
	// versioned write path: every update invalidates the arm's cache (and
	// any peer caches), so no read ever returns a superseded payload.
	// "none" models the unversioned baseline: writes land on the backend
	// but caches keep serving whatever they hold, and the stale-read
	// counters show the damage. "paired" runs every arm both ways under
	// "Arm" and "Arm!stale" labels so one report carries the comparison.
	// Read-only scenarios ignore the field.
	Coherence string  `json:"coherence,omitempty"`
	Phases    []Phase `json:"phases"`
}

// LoadSpec parses one scenario spec from JSON and validates it. Unknown
// fields are rejected so typos fail loudly. Durations use the
// encoding/json representation of time.Duration (integer nanoseconds);
// spec files are usually produced by marshalling a Spec — agar-suite
// -dumpspec emits any library scenario in this form as a starting point.
func LoadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpecFile reads and validates a JSON scenario spec from a file.
func LoadSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := LoadSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// wildcardRegion resolves a link-endpoint name, with "*"/"" as the
// schedule wildcard.
func wildcardRegion(name string) (geo.RegionID, error) {
	if name == "" || name == "*" {
		return netsim.AnyRegion, nil
	}
	return geo.ParseRegion(name)
}

// TotalDuration sums the phase durations.
func (s Spec) TotalDuration() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// Scale returns a copy of the spec with every duration and event offset
// multiplied by f — the hook tests use to replay a scenario's exact shape
// at a fraction of its virtual length.
func (s Spec) Scale(f float64) Spec {
	out := s
	out.Phases = make([]Phase, len(s.Phases))
	for i, p := range s.Phases {
		np := p
		np.Duration = time.Duration(float64(p.Duration) * f)
		np.Events = make([]Event, len(p.Events))
		for j, e := range p.Events {
			ne := e
			ne.At = time.Duration(float64(e.At) * f)
			ne.Duration = time.Duration(float64(e.Duration) * f)
			np.Events[j] = ne
		}
		out.Phases[i] = np
	}
	return out
}

// storeTiers resolves a validated spec's tier sweep: the explicit
// StoreTiers list, or the single BackendStore tier (defaulting to the mem
// baseline). The second result reports whether the spec names tiers
// explicitly enough that arm labels should carry them.
func (s Spec) storeTiers() ([]store.Tier, bool) {
	if len(s.StoreTiers) == 0 {
		t, _ := store.ParseTier(s.BackendStore)
		return []store.Tier{t}, false
	}
	out := make([]store.Tier, len(s.StoreTiers))
	for i, name := range s.StoreTiers {
		out[i], _ = store.ParseTier(name)
	}
	return out, true
}

// hasBandwidthCaps reports whether any phase carries a bandwidth-cap
// event — the runner then sizes chunk transfers so the caps have bytes to
// charge for.
func (s Spec) hasBandwidthCaps() bool {
	for _, p := range s.Phases {
		for _, e := range p.Events {
			if e.Kind == EventBandwidthCap {
				return true
			}
		}
	}
	return false
}

// hasUpdates reports whether any phase mutates the working set — the
// runner then builds the mutation path and the coherence mode applies.
func (s Spec) hasUpdates() bool {
	for _, p := range s.Phases {
		if p.Updates > 0 || p.RMW > 0 {
			return true
		}
	}
	return false
}

// coherenceModes resolves the validated spec's coherence selection into
// the list of modes each arm runs (true = writes invalidate caches), plus
// whether labels need the mode suffix. Read-only specs run one untouched
// pass.
func (s Spec) coherenceModes() ([]bool, bool) {
	if !s.hasUpdates() {
		return []bool{true}, false
	}
	switch s.Coherence {
	case CoherenceNone:
		return []bool{false}, false
	case CoherencePaired:
		return []bool{true, false}, true
	default:
		return []bool{true}, false
	}
}

// objects returns the working-set size with the default applied.
func (s Spec) objects() int {
	if s.Objects > 0 {
		return s.Objects
	}
	return 300
}

// Validate checks the spec for structural errors before any run starts.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	}
	if s.Region != "" {
		if _, err := geo.ParseRegion(s.Region); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	client := s.Region
	if client == "" {
		client = geo.Frankfurt.String()
	}
	seenPeer := make(map[string]bool, len(s.PeerRegions))
	for _, p := range s.PeerRegions {
		if _, err := geo.ParseRegion(p); err != nil {
			return fmt.Errorf("scenario %q: peer: %w", s.Name, err)
		}
		if p == client {
			return fmt.Errorf("scenario %q: peer region %q is the client region", s.Name, p)
		}
		if seenPeer[p] {
			return fmt.Errorf("scenario %q: duplicate peer region %q", s.Name, p)
		}
		seenPeer[p] = true
	}
	if s.BackendStore != "" && len(s.StoreTiers) > 0 {
		return fmt.Errorf("scenario %q: backend_store and store_tiers are mutually exclusive", s.Name)
	}
	if _, err := store.ParseTier(s.BackendStore); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	seenTier := make(map[string]bool, len(s.StoreTiers))
	for _, tier := range s.StoreTiers {
		if _, err := store.ParseTier(tier); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if seenTier[tier] {
			return fmt.Errorf("scenario %q: duplicate store tier %q", s.Name, tier)
		}
		seenTier[tier] = true
	}
	switch s.Coherence {
	case "", CoherenceVersioned, CoherenceNone, CoherencePaired:
	default:
		return fmt.Errorf("scenario %q: unknown coherence mode %q (want versioned|none|paired)", s.Name, s.Coherence)
	}
	if s.Coherence != "" && !s.hasUpdates() {
		return fmt.Errorf("scenario %q: coherence %q set but no phase has updates or rmw", s.Name, s.Coherence)
	}
	n := s.objects()
	seen := make(map[string]bool, len(s.Phases))
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("scenario %q: phase %d needs a name", s.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("scenario %q: duplicate phase name %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Duration <= 0 {
			return fmt.Errorf("scenario %q: phase %q needs a positive duration", s.Name, p.Name)
		}
		if err := p.Workload.validate(n); err != nil {
			return fmt.Errorf("scenario %q: phase %q: %w", s.Name, p.Name, err)
		}
		if p.Updates < 0 || p.RMW < 0 || p.Updates+p.RMW > 1 {
			return fmt.Errorf("scenario %q: phase %q: updates %v + rmw %v outside [0,1]",
				s.Name, p.Name, p.Updates, p.RMW)
		}
		for j, e := range p.Events {
			if err := e.validate(n, p.Duration); err != nil {
				return fmt.Errorf("scenario %q: phase %q event %d: %w", s.Name, p.Name, j, err)
			}
		}
	}
	return nil
}

func (w Workload) validate(objects int) error {
	switch w.Kind {
	case WorkloadZipfian, WorkloadScrambled, WorkloadLatest:
		if w.Skew < 0 {
			return fmt.Errorf("workload %s: negative skew", w.Kind)
		}
	case WorkloadUniform:
	case WorkloadHotspot:
		if w.HotLo < 0 || w.HotHi <= w.HotLo || w.HotHi > objects {
			return fmt.Errorf("workload hotspot: bad range [%d,%d) over %d objects", w.HotLo, w.HotHi, objects)
		}
		if w.HotFrac <= 0 || w.HotFrac > 1 {
			return fmt.Errorf("workload hotspot: hot_frac %v outside (0,1]", w.HotFrac)
		}
	case WorkloadMix:
		if len(w.Components) == 0 {
			return fmt.Errorf("workload mix: needs at least one component")
		}
		for i, c := range w.Components {
			if c.Weight <= 0 {
				return fmt.Errorf("workload mix: component %d weight %v must be positive", i, c.Weight)
			}
			if c.Workload.Kind == WorkloadMix {
				return fmt.Errorf("workload mix: component %d nests another mix", i)
			}
			if err := c.Workload.validate(objects); err != nil {
				return fmt.Errorf("workload mix: component %d: %w", i, err)
			}
		}
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	return nil
}

func (e Event) validate(objects int, phase time.Duration) error {
	if e.At < 0 || e.At > phase {
		return fmt.Errorf("%s: offset %v outside phase of %v", e.Kind, e.At, phase)
	}
	if e.Duration < 0 {
		return fmt.Errorf("%s: negative duration", e.Kind)
	}
	switch e.Kind {
	case EventLatencyShift:
		if _, err := wildcardRegion(e.From); err != nil {
			return err
		}
		if _, err := wildcardRegion(e.To); err != nil {
			return err
		}
		if e.Factor < 0 {
			return fmt.Errorf("latency-shift: negative factor")
		}
		if e.Factor == 0 && e.Add == 0 {
			return fmt.Errorf("latency-shift: needs a factor or an add")
		}
	case EventPartition:
		if e.From == "" || e.From == "*" || e.To == "" || e.To == "*" {
			return fmt.Errorf("partition: needs concrete from and to regions")
		}
		if _, err := geo.ParseRegion(e.From); err != nil {
			return err
		}
		if _, err := geo.ParseRegion(e.To); err != nil {
			return err
		}
	case EventRegionOutage:
		if _, err := geo.ParseRegion(e.Region); err != nil {
			return fmt.Errorf("region-outage: %w", err)
		}
	case EventBandwidthCap:
		if _, err := wildcardRegion(e.From); err != nil {
			return err
		}
		if _, err := wildcardRegion(e.To); err != nil {
			return err
		}
		if e.BPS <= 0 {
			return fmt.Errorf("bandwidth-cap: needs a positive bps, got %d", e.BPS)
		}
	case EventCacheCrash:
	case EventFlashCrowd:
		if e.HotLo < 0 || e.HotHi <= e.HotLo || e.HotHi > objects {
			return fmt.Errorf("flash-crowd: bad range [%d,%d) over %d objects", e.HotLo, e.HotHi, objects)
		}
		if e.HotFrac <= 0 || e.HotFrac > 1 {
			return fmt.Errorf("flash-crowd: hot_frac %v outside (0,1]", e.HotFrac)
		}
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	return nil
}
