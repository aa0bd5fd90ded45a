package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/client"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/experiments"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/store"
	"github.com/agardist/agar/internal/workload"
	"github.com/agardist/agar/internal/ycsb"
)

// Options tunes a scenario run without changing the scenario's shape.
type Options struct {
	// Arms are the cache policies to compare; nil means DefaultArms with
	// the spec's CacheChunks.
	Arms []experiments.Strategy
	// OpCap bounds the measured operations per phase as a safety net
	// against runaway virtual phases (default 5000).
	OpCap int
	// WarmupOps run on the first phase's workload before measurement, with
	// chaos inactive. Zero means the default of 300; pass a negative value
	// to disable warm-up entirely (cold-cache runs).
	WarmupOps int
	// Seed makes the whole run deterministic; every arm replays the same
	// seeded key stream and latency jitter so arms pair (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.OpCap <= 0 {
		o.OpCap = 5000
	}
	if o.WarmupOps < 0 {
		o.WarmupOps = 0
	} else if o.WarmupOps == 0 {
		o.WarmupOps = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DefaultArms returns the suite's standard comparison: Agar's knapsack
// against the LRU-c, LFU-c and backend-only baselines.
func DefaultArms(c int) []experiments.Strategy {
	return []experiments.Strategy{
		{Kind: experiments.StratAgar},
		{Kind: experiments.StratLRU, C: c},
		{Kind: experiments.StratLFU, C: c},
		{Kind: experiments.StratBackend},
	}
}

// ParseArm resolves an arm name ("agar", "lru", "lfu", "fixed", "backend")
// to a strategy with the given fixed chunk count.
func ParseArm(name string, c int) (experiments.Strategy, error) {
	switch name {
	case "agar":
		return experiments.Strategy{Kind: experiments.StratAgar}, nil
	case "lru":
		return experiments.Strategy{Kind: experiments.StratLRU, C: c}, nil
	case "lfu":
		return experiments.Strategy{Kind: experiments.StratLFU, C: c}, nil
	case "fixed":
		return experiments.Strategy{Kind: experiments.StratFixed, C: c}, nil
	case "backend":
		return experiments.Strategy{Kind: experiments.StratBackend}, nil
	default:
		return experiments.Strategy{}, fmt.Errorf("scenario: unknown arm %q (want agar|lru|lfu|fixed|backend)", name)
	}
}

// generator builds the phase workload's key stream.
func (w Workload) generator(n int, seed int64) workload.Generator {
	skew := w.Skew
	if skew == 0 {
		skew = 1.1 // the paper's default
	}
	switch w.Kind {
	case WorkloadZipfian:
		return workload.NewZipfian(n, skew, seed)
	case WorkloadScrambled:
		return workload.NewScrambledZipfian(n, skew, seed)
	case WorkloadUniform:
		return workload.NewUniform(n, seed)
	case WorkloadHotspot:
		return workload.NewRangeHotspot(n, w.HotLo, w.HotHi, w.HotFrac, seed)
	case WorkloadLatest:
		return workload.NewLatest(n, skew, seed)
	case WorkloadMix:
		comps := make([]workload.Component, len(w.Components))
		for i, c := range w.Components {
			comps[i] = workload.Component{
				Weight: c.Weight,
				Gen:    c.Workload.generator(n, seed+int64(i)*97+1),
			}
		}
		return workload.NewMix(seed, comps...)
	default:
		panic(fmt.Sprintf("scenario: unvalidated workload kind %q", w.Kind))
	}
}

// flashWindow is a compiled flash-crowd overlay, in offsets from the
// schedule epoch.
type flashWindow struct {
	window netsim.Window
	lo, hi int
	frac   float64
}

// crashAction is a compiled one-shot cache crash.
type crashAction struct {
	at    time.Duration
	fired bool
}

// flashGen overlays flash-crowd windows on a base generator: inside an
// active window, frac of the requests divert uniformly into the hot range.
type flashGen struct {
	clock   *netsim.VirtualClock
	epoch   time.Time
	base    workload.Generator
	windows []flashWindow
	rng     *rand.Rand
}

// Next implements workload.Generator.
func (g *flashGen) Next() int {
	off := g.clock.Now().Sub(g.epoch)
	for _, w := range g.windows {
		if !w.window.Contains(off) {
			continue
		}
		if g.rng.Float64() < w.frac {
			return w.lo + g.rng.Intn(w.hi-w.lo)
		}
		break
	}
	return g.base.Next()
}

// N implements workload.Generator.
func (g *flashGen) N() int { return g.base.N() }

// compiled is a spec lowered onto one arm-run's virtual timeline.
type compiled struct {
	schedule *netsim.Schedule
	flash    [][]flashWindow  // per phase
	crashes  [][]*crashAction // per phase
}

// compile lowers the spec's events onto a schedule anchored at epoch.
// Network events (shifts, partitions, outages) become schedule rules;
// client-side events (cache crashes, flash crowds) become per-phase hooks.
func compile(spec Spec, epoch time.Time) *compiled {
	c := &compiled{
		schedule: netsim.NewSchedule(epoch),
		flash:    make([][]flashWindow, len(spec.Phases)),
		crashes:  make([][]*crashAction, len(spec.Phases)),
	}
	var off time.Duration
	for i, p := range spec.Phases {
		for _, e := range p.Events {
			start := off + e.At
			end := start + e.Duration
			if e.Duration == 0 {
				end = off + p.Duration
			}
			w := netsim.Window{Start: start, End: end}
			switch e.Kind {
			case EventLatencyShift:
				from, _ := wildcardRegion(e.From)
				to, _ := wildcardRegion(e.To)
				c.schedule.Shift(w, from, to, e.Factor, e.Add)
			case EventPartition:
				a, _ := geo.ParseRegion(e.From)
				b, _ := geo.ParseRegion(e.To)
				c.schedule.Cut(w, a, b)
			case EventRegionOutage:
				r, _ := geo.ParseRegion(e.Region)
				c.schedule.CutRegion(w, r)
			case EventBandwidthCap:
				from, _ := wildcardRegion(e.From)
				to, _ := wildcardRegion(e.To)
				c.schedule.CapBandwidth(w, from, to, e.BPS)
			case EventCacheCrash:
				c.crashes[i] = append(c.crashes[i], &crashAction{at: start})
			case EventFlashCrowd:
				c.flash[i] = append(c.flash[i], flashWindow{window: w, lo: e.HotLo, hi: e.HotHi, frac: e.HotFrac})
			}
		}
		off += p.Duration
	}
	return c
}

// Run executes the scenario for every arm on the in-process simulator and
// assembles the report. Arms share one loaded deployment (outages are
// modelled at the network layer) and replay identical seeded workloads, so
// per-phase results pair across arms. Mutating scenarios write to the
// shared backend, but every arm replays the same seeded write sequence, so
// later arms see the same backend evolution and pairing still holds;
// stale-read accounting is always judged against the running arm's own
// writes.
func Run(spec Spec, opts Options) (*Report, error) {
	d, err := newDeployment(spec, opts)
	if err != nil {
		return nil, err
	}
	arms := d.opts.Arms
	if len(arms) == 0 {
		c := spec.CacheChunks
		if c <= 0 {
			c = 3
		}
		arms = DefaultArms(c)
	}

	// Cross the cache-policy arms with the spec's blob-store tiers and
	// coherence modes: a plain scenario runs each arm once on its
	// (implicit) tier, a tier sweep runs every arm once per tier under
	// "Arm@tier" labels, and a coherence-paired mutating scenario runs
	// every arm with and without write invalidation ("Arm" vs
	// "Arm!stale") so the stale-read cost of skipping the versioned
	// write path pairs phase by phase.
	tiers, sweep := spec.storeTiers()
	cohModes, cohSweep := spec.coherenceModes()
	var runs []armRun
	for _, arm := range arms {
		for _, tier := range tiers {
			for _, coherent := range cohModes {
				label := arm.Name()
				if sweep {
					label += "@" + tier.Name
				}
				if cohSweep && !coherent {
					label += StaleSuffix
				}
				runs = append(runs, armRun{strat: arm, tier: tier, coherent: coherent, label: label})
			}
		}
	}

	start := time.Now()
	labels := make([]string, len(runs))
	agarIdx := -1
	perArm := make([][]ycsb.Result, len(runs))
	for i, ar := range runs {
		labels[i] = ar.label
		if agarIdx < 0 && ar.strat.Kind == experiments.StratAgar {
			agarIdx = i
		}
		results := make([]ycsb.Result, 0, len(spec.Phases))
		err := d.playArm(spec, ar, 0, d.opts.OpCap, func(_ int, res ycsb.Result, _, _ time.Time) {
			results = append(results, res)
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %q arm %s: %w", spec.Name, ar.label, err)
		}
		perArm[i] = results
	}
	rep := buildReport(spec, d.region.String(), labels, agarIdx, perArm, d.opts)
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep, nil
}

// deployment is the loaded simulator every arm of one run shares, with the
// measured region and the run's defaulted options.
type deployment struct {
	*experiments.Deployment
	region geo.RegionID
	opts   Options
}

// newDeployment validates the spec and loads the deployment its arms share.
func newDeployment(spec Spec, opts Options) (*deployment, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	region := geo.Frankfurt
	if spec.Region != "" {
		region, _ = geo.ParseRegion(spec.Region)
	}
	params := experiments.DefaultParams()
	params.NumObjects = spec.objects()
	params.Seed = opts.Seed
	if spec.Clients > 0 {
		params.Clients = spec.Clients
	}
	d, err := experiments.NewDeployment(params)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	return &deployment{Deployment: d, region: region, opts: opts}, nil
}

// armRun is one pass over a spec's timeline: a cache policy reading over
// one blob-store tier, with writes that invalidate its caches (coherent)
// or leave them stale.
type armRun struct {
	strat    experiments.Strategy
	tier     store.Tier
	coherent bool
	label    string
}

// playArm plays the whole scenario timeline through one arm and hands each
// measured window to measured, with the measurement epoch and the window's
// end on the virtual clock. Every phase is sliced into windows of every
// (the whole phase when zero) capped at ops operations. A phase always
// plays at least one window, so an arm yields a result for every phase
// even when the previous phase's last operation overshot this one's end.
func (d *deployment) playArm(spec Spec, ar armRun, every time.Duration, ops int, measured func(phase int, res ycsb.Result, epoch, end time.Time)) error {
	opts, region := d.opts, d.region
	cacheMB := spec.CacheMB
	if cacheMB <= 0 {
		cacheMB = 10
	}
	clients := d.Params.Clients

	clock := netsim.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	sampler := netsim.NewSampler(d.Matrix, d.Params.Jitter, opts.Seed)
	env := d.Env(sampler)
	// Lower the tier's modelled envelope onto this run: per-chunk service
	// time and transient faults on every backend fetch, and a bandwidth
	// ceiling that charges paper-scale chunk transfers on every link. The
	// mem baseline configures nothing, so its runs (and their jitter
	// streams) stay bit-exact with pre-tier scenarios.
	if tier := ar.tier; !tier.Baseline() {
		env.StoreLatency = tier.Latency
		env.StoreErrRate = tier.ErrRate
		if tier.BandwidthBps > 0 {
			env.ChunkBytes = d.PaperChunkBytes()
			sampler.CapBandwidth(netsim.AnyRegion, netsim.AnyRegion, tier.BandwidthBps)
		}
	}
	// Bandwidth-cap events need sized transfers too: without ChunkBytes the
	// sampler has no bytes to charge the capped window for.
	if env.ChunkBytes == 0 && spec.hasBandwidthCaps() {
		env.ChunkBytes = d.PaperChunkBytes()
	}
	reader, node, err := d.NewReader(ar.strat, env, region, cacheMB, opts.Seed)
	if err != nil {
		return err
	}

	// Cooperative peers (§VI): each peer region runs its own Agar node on
	// the phase workloads, peered symmetrically with the measured node, so
	// the measured region's knapsack devalues peer-covered chunks and its
	// reader pulls them at peer latency instead of crossing the WAN. Only
	// the agar arm has a node to peer; other arms run unpeered and the
	// report's paired deltas show what the mesh buys.
	type coopPeer struct {
		region geo.RegionID
		reader client.Reader
		node   *core.Node
	}
	var peers []coopPeer
	if node != nil {
		for i, name := range spec.PeerRegions {
			pr, _ := geo.ParseRegion(name)
			peerReader, peerNode, err := d.NewReader(ar.strat, env, pr, cacheMB, opts.Seed+7001+int64(i))
			if err != nil {
				return fmt.Errorf("peer %s: %w", name, err)
			}
			node.AddPeer(pr, peerNode.Cache(), d.Matrix.Get(region, pr))
			peerNode.AddPeer(region, node.Cache(), d.Matrix.Get(pr, region))
			peers = append(peers, coopPeer{region: pr, reader: peerReader, node: peerNode})
		}
	}
	// The mutation path for scenarios with update/RMW phases: one writer
	// with an authoritative record of every payload it wrote, so stale
	// reads are judged against ground truth. Coherent runs register the
	// arm's cache (and every peer cache) for write invalidation — the
	// simulator's stand-in for the versioned write path's floors and
	// digest-borne invalidations; uncoherent runs leave caches to serve
	// whatever they hold.
	cached := armCache(reader, node)
	var mut *mutator
	if spec.hasUpdates() {
		var invs []client.Invalidator
		if ar.coherent {
			if cached != nil {
				invs = append(invs, cached)
			}
			for _, p := range peers {
				invs = append(invs, p.node.Cache())
			}
		}
		mut = newMutator(env, region, d.Params.ObjectBytes, invs...)
	}

	// warmPeers drives each peer's own clients on the phase workload —
	// popularity, reconfiguration, then cache-filling reads — so the peer
	// holds the hot set the way an independently serving region would.
	// Peer reads never touch the measured virtual clock.
	warmPeers := func(phaseIdx int, w Workload) {
		if len(peers) == 0 {
			return
		}
		ops := opts.WarmupOps
		if ops <= 0 {
			ops = 300
		}
		n := spec.objects()
		for j, p := range peers {
			gen := w.generator(n, opts.Seed+int64(phaseIdx)*811+int64(j)*53+19)
			for o := 0; o < ops; o++ {
				p.reader.Read(workload.KeyName(gen.Next()))
			}
			p.node.ForceReconfigure()
			for o := 0; o < ops/3; o++ {
				p.reader.Read(workload.KeyName(gen.Next()))
			}
		}
	}

	// Warm caches and popularity statistics on the opening workload with
	// chaos inactive, exactly like the paper's warm-up reads.
	n := spec.objects()
	if opts.WarmupOps > 0 {
		_, err := ycsb.Run(ycsb.RunConfig{
			Reader:     reader,
			Generator:  spec.Phases[0].Workload.generator(n, opts.Seed+101),
			Operations: opts.WarmupOps,
			Clock:      clock,
			Node:       node,
			Clients:    clients,
		})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	// Measurement starts now: anchor the chaos timeline here and bind it
	// into the sampler every read flows through.
	epoch := clock.Now()
	comp := compile(spec, epoch)
	sampler.SetChaos(clock, comp.schedule)
	defer sampler.SetChaos(nil, nil)

	// crash fires a compiled cache-crash event once, emptying the arm's
	// cache (cacheless arms have nothing to lose).
	crash := func(c *crashAction) {
		if !c.fired {
			c.fired = true
			if cached != nil {
				cached.Clear()
			}
		}
	}

	var elapsed time.Duration
	for i, p := range spec.Phases {
		warmPeers(i, p.Workload)
		// Phase ends anchor to the epoch, exactly like the compiled event
		// windows: a phase whose last operation overshoots its boundary
		// starts the next phase late, but the overshoot never accumulates
		// and event windows stay aligned with phase boundaries.
		elapsed += p.Duration
		phaseEnd := epoch.Add(elapsed)
		var gen workload.Generator = p.Workload.generator(n, opts.Seed+int64(i)*1009+7)
		if len(comp.flash[i]) > 0 {
			gen = &flashGen{
				clock:   clock,
				epoch:   epoch,
				base:    gen,
				windows: comp.flash[i],
				rng:     rand.New(rand.NewSource(opts.Seed + int64(i)*31 + 13)),
			}
		}
		var beforeOp func(time.Time)
		if crashes := comp.crashes[i]; len(crashes) > 0 {
			beforeOp = func(now time.Time) {
				off := now.Sub(epoch)
				for _, c := range crashes {
					if off >= c.at {
						crash(c)
					}
				}
			}
		}
		for {
			end := phaseEnd
			if next := clock.Now().Add(every); every > 0 && next.Before(end) {
				end = next
			}
			runCfg := ycsb.RunConfig{
				Reader:     reader,
				Generator:  gen,
				Operations: ops,
				Clock:      clock,
				Node:       node,
				Clients:    clients,
				Deadline:   end,
				BeforeOp:   beforeOp,
			}
			if mut != nil {
				runCfg.UpdateFrac = p.Updates
				runCfg.RMWFrac = p.RMW
				runCfg.Update = mut.update
				runCfg.Verify = mut.verify
				runCfg.MixSeed = opts.Seed + int64(i)*389 + 23
			}
			res, err := ycsb.Run(runCfg)
			if err != nil {
				return fmt.Errorf("phase %q: %w", p.Name, err)
			}
			// If the op cap ended the window early, jump to its end so
			// windows stay evenly spaced and later event windows arrive at
			// their declared offsets.
			if now := clock.Now(); now.Before(end) {
				clock.Advance(end.Sub(now))
			}
			measured(i, res, epoch, clock.Now())
			if !clock.Now().Before(phaseEnd) {
				break
			}
		}
		// Fire any timed actions still pending for this phase (scheduled
		// after the last operation, or inside an op-cap-skipped interval),
		// so every arm leaves the phase in the same state regardless of its
		// op rate.
		for _, c := range comp.crashes[i] {
			crash(c)
		}
	}
	return nil
}

// armCache resolves the arm's local cache; nil for cacheless arms.
func armCache(reader interface{}, node *core.Node) *cache.Cache {
	if node != nil {
		return node.Cache()
	}
	if c, ok := reader.(interface{ Cache() *cache.Cache }); ok {
		return c.Cache()
	}
	return nil
}

// mutPayload builds the self-describing body one update writes: the key
// and generation repeated to size, so any decode mixing generations can
// never equal a generation's exact payload.
func mutPayload(key string, gen, size int) []byte {
	unit := []byte(fmt.Sprintf("%s#%06d|", key, gen))
	out := bytes.Repeat(unit, size/len(unit)+1)
	return out[:size]
}

// mutator is a scenario run's write path: every update stores a fresh
// generation of the key through the simulated client writer (invalidating
// whatever caches were registered) and records the payload as the key's
// authority. verify then judges reads against that authority — a
// successful read of anything else is a stale read. Keys the run never
// wrote have no authority and always verify.
type mutator struct {
	writer *client.Writer
	size   int
	gens   map[string]int
	auth   map[string][]byte
}

func newMutator(env *client.Env, region geo.RegionID, objBytes int, invalidators ...client.Invalidator) *mutator {
	return &mutator{
		writer: client.NewWriter(env, region, invalidators...),
		size:   objBytes,
		gens:   make(map[string]int),
		auth:   make(map[string][]byte),
	}
}

// update writes the key's next generation and returns the modelled write
// latency — the ycsb Update hook.
func (m *mutator) update(key string) (time.Duration, error) {
	gen := m.gens[key] + 1
	payload := mutPayload(key, gen, m.size)
	lat, err := m.writer.Write(key, payload)
	if err != nil {
		return lat, err
	}
	m.gens[key] = gen
	m.auth[key] = payload
	return lat, nil
}

// verify is the ycsb Verify hook: true when the read returned the key's
// current authoritative payload (or the run never wrote the key).
func (m *mutator) verify(key string, data []byte) bool {
	want, ok := m.auth[key]
	return !ok || bytes.Equal(data, want)
}
