package live

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/monitor"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/store"
	"github.com/agardist/agar/internal/trace"
)

// ClusterConfig sizes a localhost deployment of the full system.
type ClusterConfig struct {
	// Regions to deploy (default: the paper's six).
	Regions []geo.RegionID
	// K, M are the erasure-code parameters.
	K, M int
	// ClientRegion hosts the Agar node whose cache and hints are served.
	ClientRegion geo.RegionID
	// CacheBytes bounds the Agar node's cache; ChunkBytes is the slot unit.
	CacheBytes, ChunkBytes int64
	// ReconfigPeriod is the node's wall-clock reconfiguration period.
	ReconfigPeriod time.Duration
	// Matrix is the emulated wide-area latency model (default matrix when
	// nil); DelayScale compresses its delays for fast local runs (e.g.
	// 0.01 turns 980 ms into 9.8 ms). Zero scale disables delay injection.
	Matrix     *geo.LatencyMatrix
	DelayScale float64
	// Schedule, when set, overlays time-varying chaos (latency shifts and
	// link cuts) on the emulated WAN, evaluated against the wall clock.
	// Readers skip chunks behind severed links at fetch-planning time, the
	// way a real client's failure detector steers around a partition.
	Schedule *netsim.Schedule
	// UseUDPHints selects the UDP hint channel instead of TCP.
	UseUDPHints bool
	// DigestPeriod is how often the cooperative-mesh advertiser pushes
	// residency digests to peered clusters (default 1s; only runs once
	// Peer has been called).
	DigestPeriod time.Duration
	// Store selects the blob-store backend chunk persistence delegates to:
	// in-memory (default), an on-disk object layout, or a remote S3-style
	// gateway (cmd/blob-server), optionally chaos-wrapped. The cluster owns
	// the opened adapter and closes it with Close.
	Store store.Config
	// MetricsAddr, when non-empty, serves the cluster's shared metrics
	// registry over HTTP at /metrics (Prometheus text format) — every
	// server's families plus the client read path's, in one scrape.
	// "127.0.0.1:0" picks an ephemeral port (see MetricsAddr()).
	MetricsAddr string
	// Clock, when set, replaces the wall clock for derived staleness
	// measurements (coop digest ages) so harnesses on virtual time get
	// deterministic digest_age_ms values.
	Clock netsim.Clock
}

// Cluster is a running localhost deployment: one store server per region,
// the client region's cache server and hint service, and the Agar node
// driving reconfiguration on the wall clock.
type Cluster struct {
	cfg     ClusterConfig
	codec   *erasure.Codec
	cluster *backend.Cluster
	blob    store.BlobStore
	node    *core.Node

	storeSrvs map[geo.RegionID]*Server
	cacheSrv  *Server
	hintSrv   *Server
	udpSrv    *UDPHintServer

	// versions is the cluster-wide version-floor table: the cache server
	// admits versioned mutations against it, incoming digests raise it, and
	// readers consult it as the local bounded-staleness floor.
	versions *coherence.VersionTable

	// Cooperative mesh state: the table mirrors peers' digests, the
	// advertiser pushes this cluster's own residency out.
	table   *coop.Table
	adv     *coop.Advertiser
	peerMu  sync.Mutex
	peers   []PeerLink
	peerRCs []*RemoteCache

	// Observability: every server and every reader of this cluster reports
	// into one registry; the optional HTTP endpoint serves it at /metrics
	// plus /debug/traces and /debug/pprof. rec is the shared flight
	// recorder every server of this cluster records into.
	reg        *metrics.Registry
	rec        *trace.Recorder
	metricsLn  net.Listener
	metricsSrv *http.Server

	// Client-side population backpressure, aggregated across this cluster's
	// readers: live pools are summed at gather time, and a closed reader's
	// dropped count folds into the base so the counter never goes backward.
	popMu       sync.Mutex
	populators  []*populator
	popDroppedC int64

	closeOnce sync.Once
}

// PeerLink is one cooperative peer this cluster reads from: its region,
// its cache server's address, the client-to-peer chunk latency, and the
// local mirror of its advertised residency.
type PeerLink struct {
	Region  geo.RegionID
	Addr    string
	Latency time.Duration
	Mirror  *coop.Mirror
}

// StartCluster boots every role on ephemeral localhost ports.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Regions) == 0 {
		cfg.Regions = geo.DefaultRegions()
	}
	if cfg.K == 0 {
		cfg.K, cfg.M = 9, 3
	}
	if cfg.Matrix == nil {
		cfg.Matrix = geo.DefaultMatrix()
	}
	if cfg.ReconfigPeriod == 0 {
		cfg.ReconfigPeriod = 30 * time.Second
	}
	codec, err := erasure.New(cfg.K, cfg.M)
	if err != nil {
		return nil, err
	}
	placement := geo.NewRoundRobin(cfg.Regions, false)
	blob, err := store.Open(cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("live: open blob store: %w", err)
	}
	reg := metrics.NewRegistry()
	kind := cfg.Store.Kind
	if kind == "" {
		kind = store.KindMem
	}
	blob = store.WithMetrics(blob, reg, kind)
	cluster := backend.NewClusterOn(cfg.Regions, codec, placement, blob)

	c := &Cluster{
		cfg:       cfg,
		codec:     codec,
		cluster:   cluster,
		blob:      blob,
		storeSrvs: make(map[geo.RegionID]*Server),
		versions:  coherence.NewVersionTable(),
		reg:       reg,
		rec:       trace.NewRecorder(),
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	for _, r := range cfg.Regions {
		srv, err := NewStoreServerOpts("127.0.0.1:0", cluster.Store(r), ServerOptions{
			Registry: c.reg, Region: r.String(), Recorder: c.rec,
		})
		if err != nil {
			return fail(err)
		}
		c.storeSrvs[r] = srv
	}

	c.node = core.NewNode(core.NodeParams{
		Region:         cfg.ClientRegion,
		Regions:        cfg.Regions,
		Placement:      placement,
		K:              cfg.K,
		M:              cfg.M,
		CacheBytes:     cfg.CacheBytes,
		ChunkBytes:     cfg.ChunkBytes,
		ReconfigPeriod: cfg.ReconfigPeriod,
		CacheLatency:   20 * time.Millisecond,
		// The optimum of the knapsack POPULATE approximates costs
		// milliseconds at any cache size deployed here, so a live node
		// re-adapts well inside its period; POPULATE stays the simulated
		// plane's solver, where it reproduces the paper's figures.
		Solver: core.SolverExact,
	})
	c.bindReconfigMetrics()
	c.node.RegionManager().WarmUp(func(r geo.RegionID) time.Duration {
		return cfg.Matrix.Get(cfg.ClientRegion, r)
	}, 1)

	c.table = coop.NewTable()
	if cfg.Clock != nil {
		c.table.SetClock(cfg.Clock.Now)
	}
	c.adv = coop.NewAdvertiser(cfg.ClientRegion.String(), c.node.Cache(), cfg.DigestPeriod)
	if c.cacheSrv, err = NewCacheServerOpts("127.0.0.1:0", c.node.Cache(), c.table, ServerOptions{
		Registry: c.reg, Region: cfg.ClientRegion.String(),
		Recorder: c.rec, Versions: c.versions,
	}); err != nil {
		return fail(err)
	}
	if c.hintSrv, err = NewHintServerRec("127.0.0.1:0", c.node, c.rec); err != nil {
		return fail(err)
	}
	if cfg.UseUDPHints {
		if c.udpSrv, err = NewUDPHintServer("127.0.0.1:0", c.node); err != nil {
			return fail(err)
		}
	}
	c.reg.NewGaugeFunc(metrics.NamePopulationQueueDepth,
		"Async cache fills queued but not yet applied, summed over this cluster's live readers.",
		func() float64 { return float64(c.populationDepth()) })
	c.reg.NewCounterFunc(metrics.NamePopulationDropped,
		"Async cache fills shed because a reader's population queue was full.",
		func() float64 { return float64(c.populationDropped()) })
	if cfg.MetricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			return fail(fmt.Errorf("live: metrics listen %s: %w", cfg.MetricsAddr, err))
		}
		mux := http.NewServeMux()
		health := monitor.NewRegistryHealth("cluster", c.reg, monitor.DefaultServerRules())
		metrics.MountDebug(mux, c.reg, c.rec, health)
		c.metricsLn = ln
		c.metricsSrv = &http.Server{Handler: mux}
		go func() { _ = c.metricsSrv.Serve(ln) }()
	}
	c.node.Start()
	return c, nil
}

// Registry exposes the cluster's shared metrics registry — every server's
// families plus the client read path's. Scrape it over HTTP by setting
// ClusterConfig.MetricsAddr, or read it in-process here.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// Recorder exposes the cluster's shared flight recorder: every store,
// cache, and hint server of this cluster records its slowest and errored
// ops into it. Served at /debug/traces when MetricsAddr is set, or read
// in-process here.
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// MetricsAddr returns the bound /metrics address ("" when disabled).
func (c *Cluster) MetricsAddr() string {
	if c.metricsLn == nil {
		return ""
	}
	return c.metricsLn.Addr().String()
}

// addPopulator registers a reader's population pool with the cluster-wide
// backpressure metrics.
func (c *Cluster) addPopulator(p *populator) {
	c.popMu.Lock()
	c.populators = append(c.populators, p)
	c.popMu.Unlock()
}

// removePopulator folds a closing reader's dropped count into the base (so
// the cluster-wide counter stays monotonic) and stops summing its depth.
func (c *Cluster) removePopulator(p *populator) {
	c.popMu.Lock()
	for i, q := range c.populators {
		if q == p {
			c.populators = append(c.populators[:i], c.populators[i+1:]...)
			c.popDroppedC += p.droppedCount()
			break
		}
	}
	c.popMu.Unlock()
}

func (c *Cluster) populationDepth() int {
	c.popMu.Lock()
	defer c.popMu.Unlock()
	depth := 0
	for _, p := range c.populators {
		depth += p.depth()
	}
	return depth
}

func (c *Cluster) populationDropped() int64 {
	c.popMu.Lock()
	defer c.popMu.Unlock()
	dropped := c.popDroppedC
	for _, p := range c.populators {
		dropped += p.droppedCount()
	}
	return dropped
}

// Node exposes the Agar node (for forcing reconfigurations in tests).
func (c *Cluster) Node() *core.Node { return c.node }

// Backend exposes the in-process cluster for loading data.
func (c *Cluster) Backend() *backend.Cluster { return c.cluster }

// StoreAddr returns a region's store server address.
func (c *Cluster) StoreAddr(r geo.RegionID) string { return c.storeSrvs[r].Addr() }

// CacheAddr returns the client region's cache server address.
func (c *Cluster) CacheAddr() string { return c.cacheSrv.Addr() }

// CacheQueueDepth samples the cache server's requests decoded and not yet
// answered — the dispatch_queue_depth gauge, readable in-process for
// benchmarks that poll it mid-run.
func (c *Cluster) CacheQueueDepth() int64 { return c.cacheSrv.QueueDepth() }

// HintAddr returns the TCP hint server address.
func (c *Cluster) HintAddr() string { return c.hintSrv.Addr() }

// UDPHintAddr returns the UDP hint address ("" if disabled).
func (c *Cluster) UDPHintAddr() string {
	if c.udpSrv == nil {
		return ""
	}
	return c.udpSrv.Addr()
}

// Peer joins this cluster to a cooperative peer: the peer's digests
// (arriving at this cluster's cache server) maintain a residency mirror
// that plugs into the node's knapsack accounting, this cluster's own
// digests start flowing to the peer's cache server, and readers created
// after the call consult the mirror to fetch covered chunks from the peer
// at peer latency before falling back to WAN store fetches. Call it on
// both clusters for a symmetric mesh.
func (c *Cluster) Peer(region geo.RegionID, cacheAddr string, latency time.Duration) {
	mirror := c.table.Mirror(region.String())
	c.node.AddPeer(region, mirror, latency)
	rc := NewRemoteCache(cacheAddr)
	c.adv.AddTarget(region.String(), rc)
	c.peerMu.Lock()
	c.peers = append(c.peers, PeerLink{Region: region, Addr: cacheAddr, Latency: latency, Mirror: mirror})
	c.peerRCs = append(c.peerRCs, rc)
	c.peerMu.Unlock()
	c.adv.Start() // idempotent: the first peer starts the push loop
}

// Peers returns the cluster's cooperative peer links.
func (c *Cluster) Peers() []PeerLink {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	out := make([]PeerLink, len(c.peers))
	copy(out, c.peers)
	return out
}

// PushDigests advertises this cluster's residency to every peer now,
// synchronously, and reports how many peers failed — the deterministic
// alternative to waiting out a DigestPeriod in tests and smoke runs.
func (c *Cluster) PushDigests() int { return c.adv.Advertise() }

// CoopTable exposes the cluster's mirror table (for stats and tests).
func (c *Cluster) CoopTable() *coop.Table { return c.table }

// Versions exposes the cluster-wide version-floor table the cache server
// and this cluster's readers share.
func (c *Cluster) Versions() *coherence.VersionTable { return c.versions }

// Advertiser exposes the cluster's digest advertiser (for stats and tests).
func (c *Cluster) Advertiser() *coop.Advertiser { return c.adv }

// Close shuts every server down and stops the node.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		if c.adv != nil {
			c.adv.Stop()
		}
		c.peerMu.Lock()
		for _, rc := range c.peerRCs {
			rc.Close()
		}
		c.peerMu.Unlock()
		if c.node != nil {
			c.node.Stop()
		}
		for _, s := range c.storeSrvs {
			s.Close()
		}
		if c.cacheSrv != nil {
			c.cacheSrv.Close()
		}
		if c.hintSrv != nil {
			c.hintSrv.Close()
		}
		if c.udpSrv != nil {
			c.udpSrv.Close()
		}
		if c.metricsSrv != nil {
			c.metricsSrv.Close()
		}
		if c.blob != nil {
			c.blob.Close()
		}
	})
}

// Hinter abstracts the TCP and UDP hint clients.
type Hinter interface {
	Hint(key string) ([]int, error)
}

// ctxHinter is the optional traced form of Hinter: the TCP hint client
// implements it; the single-datagram UDP channel stays untraced, exactly
// as the paper's low-overhead hint path would.
type ctxHinter interface {
	HintCtx(ctx trace.Context, key string) ([]int, []trace.Annotation, error)
}

// NetworkReader reads objects through the live deployment: it requests a
// hint, picks the k chunks to read with the same planner as the simulated
// readers (geo.FetchPlan.Order and geo.Pick), and fetches them in one
// concurrent round — one batched exchange with the cache server for the
// hinted chunks, one per peer for chunks the cooperative mesh advertises at
// a cheaper latency, and one per store region for the rest, like the
// paper's thread-pooled YCSB client — then decodes. Chunks the cache or a
// peer misses fall through to their stores, batched per region, as soon as
// the reply lands. A chunk fetch that dies mid-flight triggers degraded-read
// waves (geo.Next) over the remaining reachable regions, each one batched
// store exchange per region, and hinted chunks that missed the cache are
// written back through a bounded async population pool so the read path
// never blocks on cache fills. Wide-area delays are injected client-side,
// scaled by cfg.DelayScale.
type NetworkReader struct {
	cluster *Cluster
	region  geo.RegionID
	hinter  Hinter
	cacheC  *RemoteCache
	stores  map[geo.RegionID]*RemoteStore
	peers   []readerPeer
	sampler *netsim.Sampler
	pop     *populator
	// staleDrops counts cache and peer chunks discarded because their write
	// version was below the read's target — the client-visible half of an
	// invalidation racing a read.
	staleDrops *metrics.Counter
}

// readerPeer is one cooperative peer as seen from a reader: the mirror the
// mesh maintains plus a batched client to the peer's cache server, tagged
// with this reader's region so the peer accounts the traffic. rtt records
// each batched peer exchange's observed round trip (injected delay
// included) — the measured replacement-in-waiting for the static latency.
type readerPeer struct {
	region  geo.RegionID
	latency time.Duration
	mirror  *coop.Mirror
	cache   *RemoteCache
	rtt     *metrics.Histogram
}

// peerRTTBuckets cover observed peer round trips in milliseconds: 0.25 ms
// (loopback) through ~2 s (an unscaled WAN worst case).
var peerRTTBuckets = metrics.ExponentialBuckets(0.25, 2, 14)

// NewNetworkReader connects a reader to every server of the cluster,
// including the cache servers of peers joined (via Cluster.Peer) before
// the reader was created.
func NewNetworkReader(c *Cluster, region geo.RegionID) (*NetworkReader, error) {
	var hinter Hinter
	if c.cfg.UseUDPHints {
		h, err := NewUDPHinter(c.UDPHintAddr())
		if err != nil {
			return nil, err
		}
		hinter = h
	} else {
		hinter = NewRemoteHinter(c.HintAddr())
	}
	stores := make(map[geo.RegionID]*RemoteStore, len(c.storeSrvs))
	for r, srv := range c.storeSrvs {
		stores[r] = NewRemoteStore(srv.Addr())
	}
	sampler := netsim.NewSampler(c.cfg.Matrix, 0, 1)
	if c.cfg.Schedule != nil {
		sampler.SetChaos(netsim.RealClock{}, c.cfg.Schedule)
	}
	cacheC := NewRemoteCache(c.CacheAddr())
	rttVec := c.reg.NewHistogramVec(metrics.NameCoopPeerRTTMS,
		"Observed round trip of one batched peer-cache exchange in milliseconds, injected WAN delay included.",
		peerRTTBuckets, "peer")
	var peers []readerPeer
	for _, link := range c.Peers() {
		peers = append(peers, readerPeer{
			region:  link.Region,
			latency: link.Latency,
			mirror:  link.Mirror,
			cache:   NewPeerRemoteCache(link.Addr, region.String()),
			rtt:     rttVec.With(link.Region.String()),
		})
	}
	r := &NetworkReader{
		cluster: c,
		region:  region,
		hinter:  hinter,
		cacheC:  cacheC,
		stores:  stores,
		peers:   peers,
		sampler: sampler,
		pop:     newPopulator(cacheC, populateWorkers, populateQueue),
		staleDrops: c.reg.NewCounterVec(metrics.NameClientStaleDrops,
			"Cache and peer chunks a reader discarded because their write version was below the read's target.",
			"region").With(region.String()),
	}
	c.addPopulator(r.pop)
	return r, nil
}

// populateWorkers and populateQueue bound the async cache population pool:
// two writers are plenty for batched fills, and a 64-job queue absorbs read
// bursts before fills start being shed.
const (
	populateWorkers = 2
	populateQueue   = 64
)

// FlushPopulation blocks until every queued async cache fill has been
// applied — deterministic sequencing for tests and benchmarks that read
// their own writes.
func (r *NetworkReader) FlushPopulation() { r.pop.flush() }

// PopulationBackPressure reports the async cache-fill pool's load: fills
// queued but not yet applied, and fills shed because the queue was full.
// Sustained depth near the queue bound (or a climbing drop count) means
// reads outpace the cache server's fill path — the client-side signal that
// pairs with the server's dispatch_queue_depth gauge.
func (r *NetworkReader) PopulationBackPressure() (depth int, dropped int64) {
	return r.pop.depth(), r.pop.droppedCount()
}

// Close drains the population pool and drops every connection.
func (r *NetworkReader) Close() {
	r.cluster.removePopulator(r.pop)
	r.pop.close()
	if h, ok := r.hinter.(interface{ Close() }); ok {
		h.Close()
	}
	r.cacheC.Close()
	for _, p := range r.peers {
		p.cache.Close()
	}
	for _, s := range r.stores {
		s.Close()
	}
}

// delay sleeps for the scaled wide-area latency of one chunk read.
func (r *NetworkReader) delay(to geo.RegionID) {
	if r.cluster.cfg.DelayScale <= 0 {
		return
	}
	lat := r.sampler.Chunk(r.region, to)
	r.delayDur(lat)
}

// delayDur sleeps for a fixed latency, scaled like every injected delay.
func (r *NetworkReader) delayDur(lat time.Duration) {
	if r.cluster.cfg.DelayScale <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(lat) * r.cluster.cfg.DelayScale))
}

// ReadInfo is the accounting of one live read.
type ReadInfo struct {
	// Latency is the wall-clock end-to-end read time.
	Latency time.Duration
	// CacheChunks counts chunks served by the local region's cache.
	CacheChunks int
	// PeerChunks counts chunks served by cooperative peer caches.
	PeerChunks int
	// StaleDrops counts chunks discarded mid-read because their write
	// version was below the read's target (a concurrent write or a pending
	// invalidation); dropped chunks are refetched from the stores.
	StaleDrops int
	// Version is the write version the read settled on: the maximum of the
	// session floor, the local invalidation floor, and every fetched chunk's
	// version. Zero for never-versioned objects.
	Version uint64
	// Trace is the read's span breakdown: every network exchange (hint,
	// batched cache/peer/store round trips, degraded waves, store faults)
	// with offsets, durations, chunk and byte counts.
	Trace *ReadTrace
}

// Read fetches and decodes one object over the network and returns its
// bytes, the wall-clock latency, and the number of chunks served from the
// local cache. ReadDetailed additionally reports peer-served chunks.
func (r *NetworkReader) Read(key string) ([]byte, time.Duration, int, error) {
	data, info, err := r.ReadDetailed(key)
	return data, info.Latency, info.CacheChunks, err
}

// ReadDetailed fetches and decodes one object over the network and returns
// its bytes plus the read's full accounting. Every read mints a trace
// context that propagates on each wire exchange (hint, cache mget, peer
// mgets, store fetches), so the returned trace nests real server-side
// execute annotations under the client's spans and the
// servers' flight recorders retain the read's ops under the same trace ID
// (ReadTrace.TraceID).
func (r *NetworkReader) ReadDetailed(key string) ([]byte, ReadInfo, error) {
	return r.readDetailed(key, 0)
}

// ReadSession is ReadDetailed under a session's coherence floor: chunks
// older than the session's last write of the key are never decoded
// (read-your-writes), and a successful read advances the floor to the
// version it observed (monotonic reads). A nil session reads like
// ReadDetailed.
func (r *NetworkReader) ReadSession(key string, sess *Session) ([]byte, ReadInfo, error) {
	var floor uint64
	if sess != nil {
		floor = sess.Floor(key)
	}
	data, info, err := r.readDetailed(key, floor)
	if err == nil && sess != nil {
		sess.Observe(key, info.Version)
	}
	return data, info, err
}

// readDetailed is the read path under a version floor: every fetched chunk
// below max(floor, local invalidation floor, newest fetched version) is
// discarded and refetched from the stores, so a read never mixes chunk
// generations and never returns data older than the floor.
func (r *NetworkReader) readDetailed(key string, floor uint64) ([]byte, ReadInfo, error) {
	start := time.Now()
	tc := newTraceCollector(start)
	tc.ctx = trace.New()
	k := r.cluster.codec.K()
	total := r.cluster.codec.Total()

	hintT0 := time.Now()
	var hintChunks []int
	var hintAnns []trace.Annotation
	var err error
	if th, ok := r.hinter.(ctxHinter); ok {
		hintChunks, hintAnns, err = th.HintCtx(tc.ctx.Child(), key)
	} else {
		hintChunks, err = r.hinter.Hint(key)
	}
	tc.spanRemote("hint", hintT0, 0, 0, err, hintAnns)
	if err != nil {
		return nil, ReadInfo{Trace: tc.finish(key)}, fmt.Errorf("live: hint %q: %w", key, err)
	}

	plan := geo.PlanFetch(r.cluster.cfg.Matrix, r.cluster.cluster.Placement(), key, total, r.region)
	locs := r.cluster.cluster.Placement().Locate(key, total)
	hinted := make(map[int]bool, len(hintChunks))
	for _, idx := range hintChunks {
		hinted[idx] = true
	}
	peerRoute := r.routePeers(key, plan, hinted)

	// Choose the k chunks to fetch: the nearest hinted ones first (a hint
	// names the configured chunks plus the resident ones, so it can list
	// more than k), then the nearest others by effective latency (a
	// peer-routed chunk counts at its peer's latency), steering around
	// regions the chaos schedule has severed.
	reachable := func(idx int) bool { return !r.sampler.Unreachable(r.region, locs[idx]) }
	order := plan.Order(func(idx int) (time.Duration, bool) {
		if p := peerRoute[idx]; p != nil {
			return p.latency, true
		}
		return 0, false
	})
	want := geo.Pick(order, k,
		func(idx int) bool { return hinted[idx] },
		func(idx int) bool { return peerRoute[idx] != nil || reachable(idx) })

	// The read target is the newest version the read must not go behind:
	// the caller's session floor, the local invalidation floor, and every
	// fetched chunk's version all raise it. The first round's chunks all
	// arrive before it settles, so any of them found below it stays
	// refetchable.
	g := gate{best: make(map[int]outcome, k), tried: make(map[int]bool, total)}
	top := max(floor, uint64(r.cluster.versions.Get(key)))
	for _, o := range r.fetch(tc, key, locs, "store-mget", want, hinted, peerRoute) {
		g.best[o.idx] = o
		top = max(top, o.ver)
	}
	for _, idx := range want {
		g.tried[idx] = true
	}
	g.raise(top)

	// Degraded-read waves: a chunk fetch that died mid-flight (server gone,
	// link cut after planning, stale version dropped above) is replaced by
	// the nearest chunks not yet tried, wave after wave, until k chunks
	// arrive or reachable candidates run out — the live twin of the
	// simulator client's substitution waves.
	for len(g.best) < k {
		extra := geo.Next(plan.Chunks, k-len(g.best), func(idx int) bool { return g.tried[idx] || !reachable(idx) })
		if len(extra) == 0 {
			break
		}
		for _, idx := range extra {
			g.tried[idx] = true
		}
		for _, o := range r.fetch(tc, key, locs, "degraded-mget", extra, nil, nil) {
			g.raise(o.ver)
			if o.ver < g.target {
				g.stale++ // stays tried: the next wave moves to other chunks
				continue
			}
			g.best[o.idx] = o
		}
	}

	chunks := make([][]byte, total)
	toCache := make(map[int][]byte)
	var fillVer uint64
	info := ReadInfo{StaleDrops: g.stale, Version: g.target}
	for idx, o := range g.best {
		chunks[idx] = o.data
		switch {
		case o.from == tierCache:
			info.CacheChunks++
		case o.from == tierPeer:
			info.PeerChunks++
		case hinted[idx]:
			toCache[idx] = o.data
			fillVer = max(fillVer, o.ver)
		}
	}
	if g.stale > 0 && r.staleDrops != nil {
		r.staleDrops.Add(int64(g.stale))
	}
	var data []byte
	if len(g.best) < k {
		err = fmt.Errorf("live: only %d of %d chunks for %q", len(g.best), k, key)
	} else {
		decT0 := time.Now()
		data, err = r.cluster.codec.Decode(chunks)
		tc.span("decode", decT0, 0, len(data), err)
	}
	info.Latency = time.Since(start)
	info.Trace = tc.finish(key)
	if err != nil {
		return nil, info, err
	}

	// Hand hinted-but-missed chunks to the async population pool: the fill
	// happens off the read path, batched into one PutMultiVer per object and
	// tagged with the version the chunks were read at so a fill racing a
	// newer write is refused by the server's floor instead of resurrecting
	// pre-write chunks.
	r.pop.enqueue(key, toCache, fillVer)
	return data, info, nil
}

// routePeers routes chunks through the cooperative mesh: a chunk not hinted
// locally whose cheapest reachable peer advertises it (and beats its
// home-region latency) is read from that peer instead of the WAN. The
// mirror is advisory — a stale entry just means the peer read misses and
// the chunk falls through to its store.
func (r *NetworkReader) routePeers(key string, plan geo.FetchPlan, hinted map[int]bool) map[int]*readerPeer {
	route := make(map[int]*readerPeer)
	for i, idx := range plan.Chunks {
		if hinted[idx] {
			continue
		}
		for pi := range r.peers {
			p := &r.peers[pi]
			if int64(p.latency) >= plan.Latency[i] {
				continue
			}
			if r.sampler.Unreachable(r.region, p.region) {
				continue
			}
			if !p.mirror.Contains(cache.EntryID{Key: key, Index: idx}) {
				continue
			}
			if cur, ok := route[idx]; !ok || p.latency < cur.latency {
				route[idx] = p
			}
		}
	}
	return route
}

// tier is where a fetched chunk came from.
type tier uint8

const (
	tierStore tier = iota
	tierCache
	tierPeer
)

// outcome is one chunk a fetch round delivered, with the write version it
// was stored under (zero for legacy data).
type outcome struct {
	idx  int
	data []byte
	ver  uint64
	from tier
}

// fetch runs one concurrent fetch round for want and returns every chunk
// that arrived, in arrival order. Hinted chunks travel in one batched
// exchange with the local cache and peer-routed chunks in one per peer;
// whatever those miss falls through to the stores as soon as the reply
// lands. Every store-bound chunk travels in one batched exchange per region,
// named span:<region>, so a region whose store proxies a remote blob
// gateway costs one upstream exchange, not one per chunk. A failed exchange
// delivers nothing: the caller's degraded waves substitute other chunks.
func (r *NetworkReader) fetch(tc *traceCollector, key string, locs []geo.RegionID, span string, want []int, hinted map[int]bool, peerRoute map[int]*readerPeer) []outcome {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out []outcome
	)
	// deliver records the found chunks among idxs and returns the rest.
	deliver := func(idxs []int, found map[int][]byte, vers map[int]uint64, from tier) (missed []int) {
		mu.Lock()
		defer mu.Unlock()
		for _, idx := range idxs {
			if data, ok := found[idx]; ok {
				out = append(out, outcome{idx: idx, data: data, ver: vers[idx], from: from})
			} else {
				missed = append(missed, idx)
			}
		}
		return missed
	}
	stores := func(idxs []int) {
		byRegion := make(map[geo.RegionID][]int)
		for _, idx := range idxs {
			byRegion[locs[idx]] = append(byRegion[locs[idx]], idx)
		}
		for region, idxs := range byRegion {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				var found map[int][]byte
				var vers map[int]uint64
				var anns []trace.Annotation
				var err error
				if r.sampler.Unreachable(r.region, region) {
					err = fmt.Errorf("live: region %v unreachable", region)
				} else {
					r.delay(region)
					found, vers, _, anns, err = r.stores[region].GetMultiVerCtx(tc.ctx.Child(), key, idxs)
				}
				tc.spanRemote(span+":"+region.String(), t0, len(found), sizeOf(found), err, anns)
				deliver(idxs, found, vers, tierStore)
			}()
		}
	}
	mget := func(name string, c *RemoteCache, lat time.Duration, rtt *metrics.Histogram, from tier, idxs []int) {
		defer wg.Done()
		t0 := time.Now()
		r.delayDur(lat)
		found, vers, anns, err := c.GetMultiVerCtx(tc.ctx.Child(), key, idxs)
		if rtt != nil {
			rtt.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		}
		if err != nil {
			found = nil // a failed cache or peer exchange is an all-miss, never an error
		}
		tc.spanRemote(name, t0, len(found), sizeOf(found), err, anns)
		stores(deliver(idxs, found, vers, from))
	}

	var cacheWant, storeWant []int
	peerWant := make(map[*readerPeer][]int)
	for _, idx := range want {
		switch p := peerRoute[idx]; {
		case hinted[idx]:
			cacheWant = append(cacheWant, idx)
		case p != nil:
			peerWant[p] = append(peerWant[p], idx)
		default:
			storeWant = append(storeWant, idx)
		}
	}
	stores(storeWant)
	if len(cacheWant) > 0 {
		wg.Add(1)
		go mget("cache-mget", r.cacheC, 0, nil, tierCache, cacheWant)
	}
	for p, idxs := range peerWant {
		wg.Add(1)
		go mget("peer-mget:"+p.region.String(), p.cache, p.latency, p.rtt, tierPeer, idxs)
	}
	wg.Wait()
	return out
}

// sizeOf is the payload volume of a batch reply.
func sizeOf(found map[int][]byte) int {
	n := 0
	for _, data := range found {
		n += len(data)
	}
	return n
}

// gate is a read's version gate: the chunks collected at the read's target
// version, and the chunk indices already tried.
type gate struct {
	target uint64
	best   map[int]outcome
	tried  map[int]bool
	stale  int
}

// raise lifts the target to v and drops every collected chunk below it — a
// cache or peer serving pre-invalidation state, or a store region a write
// has not reached yet. Once the target is nonzero the object is versioned,
// and a version-zero chunk is of unknown generation (a legacy insert from
// before the first versioned write): decoding it alongside current chunks
// could tear the object, so it drops too. Dropped indices become untried so
// the waves refetch them from the authoritative stores.
func (g *gate) raise(v uint64) {
	if v <= g.target {
		return
	}
	g.target = v
	for idx, o := range g.best {
		if o.ver < v {
			delete(g.best, idx)
			g.stale++
			g.tried[idx] = false
		}
	}
}
