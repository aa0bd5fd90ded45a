package scenario

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/netsim"
	"github.com/agardist/agar/internal/stats"
	"github.com/agardist/agar/internal/trace"
	"github.com/agardist/agar/internal/workload"
)

// LiveOptions sizes a live smoke run. The smoke boots the full localhost
// cluster (store servers, cache server, hint service, real TCP framing) and
// replays the scenario's opening phase through it — a deployment-level
// sanity check for the simulated results, not a benchmark.
type LiveOptions struct {
	// Ops is the number of measured reads (default 120).
	Ops int
	// Objects is the working set (default 40).
	Objects int
	// DelayScale compresses the emulated WAN delays (default 0.002:
	// 980 ms becomes ~2 ms). Negative disables delay injection entirely.
	DelayScale float64
	// Seed drives the workload.
	Seed int64
	// Traces is how many of the slowest measured reads keep their span
	// trace in the result (default 3; negative disables tracing output).
	Traces int
}

// The live smoke stores 4 KiB objects under a 4+2 code: one chunk per
// default region, so outages and partitions bite.
const (
	liveObjectBytes = 4 * 1024
	liveK, liveM    = 4, 2
)

func (o LiveOptions) withDefaults() LiveOptions {
	if o.Ops <= 0 {
		o.Ops = 120
	}
	if o.Objects <= 0 {
		o.Objects = 40
	}
	if o.DelayScale == 0 {
		o.DelayScale = 0.002
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Traces == 0 {
		o.Traces = 3
	}
	return o
}

// LiveResult summarises a live smoke run.
type LiveResult struct {
	Scenario    string                `json:"scenario"`
	Phase       string                `json:"phase"`
	Latency     stats.DurationSummary `json:"latency"`
	CacheChunks int                   `json:"cache_chunks"`
	Errors      int                   `json:"errors"`

	// Cooperative-mesh accounting, populated for peered scenarios: chunks
	// this run's reads pulled from peer caches, the peer cache server's
	// own hit/miss counters, the local mirror staleness at the end of the
	// run, and paired latency summaries of peer-assisted reads against
	// reads that crossed the WAN.
	PeerRegion  string                 `json:"peer_region,omitempty"`
	PeerChunks  int                    `json:"peer_chunks,omitempty"`
	PeerHits    int64                  `json:"peer_hits,omitempty"`
	PeerMisses  int64                  `json:"peer_misses,omitempty"`
	DigestAgeMS int64                  `json:"digest_age_ms,omitempty"`
	PeerReads   *stats.DurationSummary `json:"peer_reads,omitempty"`
	WANReads    *stats.DurationSummary `json:"wan_reads,omitempty"`

	// OpLatencies is the cache server's per-opcode latency profile over
	// the measured window, derived from /metrics scrapes at the phase
	// boundaries; SlowTraces holds the span traces of the slowest
	// measured reads, each span carrying the server-side annotations its
	// reply returned; Flight summarizes the cluster's flight recorder
	// (/debug/traces) as scraped at the phase boundary.
	OpLatencies []OpLatency      `json:"op_latencies,omitempty"`
	SlowTraces  []live.ReadTrace `json:"slow_traces,omitempty"`
	Flight      []FlightOp       `json:"flight,omitempty"`
}

// FlightOp is one opcode's flight-recorder retention on the measured
// cluster at the end of the phase: how many slow and errored records the
// always-on recorder kept, and the worst one's duration and trace ID —
// the join key back into the client-side SlowTraces.
type FlightOp struct {
	Op           string `json:"op"`
	Retained     int    `json:"retained"`
	Errors       int    `json:"errors"`
	SlowestUS    int64  `json:"slowest_us"`
	SlowestTrace string `json:"slowest_trace,omitempty"`
}

// MetricsMarkdown renders the scrape-derived per-opcode latency table and
// the slowest read span traces as a markdown fragment; empty when the run
// collected neither.
func (lr *LiveResult) MetricsMarkdown() string {
	if len(lr.OpLatencies) == 0 && len(lr.SlowTraces) == 0 {
		return ""
	}
	var b strings.Builder
	if len(lr.OpLatencies) > 0 {
		b.WriteString("\nCache-server op latency (scraped from `/metrics` over the measured window):\n\n")
		b.WriteString("| op | count | queue p50 (ms) | queue p99 (ms) | exec p50 (ms) | exec p99 (ms) |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|\n")
		for _, ol := range lr.OpLatencies {
			fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %.3f | %.3f |\n",
				ol.Op, ol.Count, ol.QueueP50MS, ol.QueueP99MS, ol.ExecP50MS, ol.ExecP99MS)
		}
	}
	if len(lr.SlowTraces) > 0 {
		b.WriteString("\nSlowest reads (span traces; indented lines are server-measured\nannotations carried back on the exchange's reply, offsets relative to\nthe server receiving the frame):\n\n```\n")
		for i, tr := range lr.SlowTraces {
			fmt.Fprintf(&b, "%d. %s  %.1f ms", i+1, tr.Key, tr.TotalMS)
			if tr.TraceID != "" {
				fmt.Fprintf(&b, "  trace=%s", tr.TraceID)
			}
			b.WriteString("\n")
			for _, sp := range tr.Spans {
				fmt.Fprintf(&b, "   %-22s +%7.2f ms %8.2f ms", sp.Name, sp.StartMS, sp.DurMS)
				if sp.Chunks > 0 {
					fmt.Fprintf(&b, "  %d chunks / %d B", sp.Chunks, sp.Bytes)
				}
				if sp.Err != "" {
					fmt.Fprintf(&b, "  err=%s", sp.Err)
				}
				b.WriteString("\n")
				for _, ann := range sp.Remote {
					fmt.Fprintf(&b, "      · %-19s +%7d µs %8d µs\n", ann.Name, ann.OffUS, ann.DurUS)
				}
			}
		}
		b.WriteString("```\n")
	}
	if len(lr.Flight) > 0 {
		b.WriteString("\nFlight recorder (`/debug/traces` scraped at the phase boundary):\n\n")
		b.WriteString("| op | slow retained | errors | slowest (ms) | slowest trace |\n")
		b.WriteString("|---|---:|---:|---:|:---|\n")
		for _, f := range lr.Flight {
			tid := f.SlowestTrace
			if tid == "" {
				tid = "—"
			}
			fmt.Fprintf(&b, "| %s | %d | %d | %.3f | `%s` |\n",
				f.Op, f.Retained, f.Errors, float64(f.SlowestUS)/1000, tid)
		}
	}
	return b.String()
}

// OpLatency is one opcode's latency profile on the measured cache server:
// queue-wait and execute percentiles in milliseconds, interpolated from
// the delta between the measurement-start and measurement-end histogram
// scrapes the way Prometheus's histogram_quantile would.
type OpLatency struct {
	Op         string  `json:"op"`
	Count      uint64  `json:"count"`
	QueueP50MS float64 `json:"queue_p50_ms"`
	QueueP99MS float64 `json:"queue_p99_ms"`
	ExecP50MS  float64 `json:"exec_p50_ms"`
	ExecP99MS  float64 `json:"exec_p99_ms"`
}

// RunLiveSmoke replays the scenario's first phase against the localhost
// cluster: real sockets, real wire framing, the region's Agar node
// reconfiguring on the wall clock, and the phase's chaos events (if any)
// compiled onto a wall-clock netsim schedule. It validates that the
// simulated pipeline holds together as a deployed system.
func RunLiveSmoke(spec Spec, opts LiveOptions) (*LiveResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	region := geo.Frankfurt
	if spec.Region != "" {
		region, _ = geo.ParseRegion(spec.Region)
	}

	// The first phase, with hot key ranges rescaled from the scenario's
	// working set into the smoke's smaller one. Its network events are
	// compiled now but stay dormant (epoch parked in the future) until
	// measurement starts, so cluster boot, loading and warm-up run chaos-
	// free — the same semantics as the simulated runner.
	phase := rescalePhase(spec.Phases[0], spec.objects(), opts.Objects)
	firstPhase := Spec{Name: spec.Name, Phases: []Phase{phase}}
	sched := compile(firstPhase, time.Now()).schedule
	sched.SetEpoch(time.Now().Add(24 * time.Hour))

	chunkBytes := int64(liveObjectBytes/liveK + 1)
	boot := func(clientRegion geo.RegionID, sched *netsim.Schedule, metricsAddr string) (*live.Cluster, error) {
		return live.StartCluster(live.ClusterConfig{
			Regions:        geo.DefaultRegions(),
			K:              liveK,
			M:              liveM,
			ClientRegion:   clientRegion,
			CacheBytes:     30 * chunkBytes,
			ChunkBytes:     chunkBytes,
			ReconfigPeriod: 200 * time.Millisecond,
			DelayScale:     opts.DelayScale,
			Schedule:       sched,
			DigestPeriod:   100 * time.Millisecond,
			MetricsAddr:    metricsAddr,
		})
	}
	// Only the measured cluster exposes /metrics: the runner scrapes it at
	// the phase boundaries to derive the per-opcode latency table.
	cluster, err := boot(region, sched, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("scenario %q live: %w", spec.Name, err)
	}
	defer cluster.Close()

	load := func(c *live.Cluster) error {
		if err := loadWorkingSet(c, opts); err != nil {
			return fmt.Errorf("scenario %q live: %w", spec.Name, err)
		}
		return nil
	}
	if err := load(cluster); err != nil {
		return nil, err
	}

	res := &LiveResult{Scenario: spec.Name, Phase: phase.Name}

	// Peered scenarios boot a second live cluster in the first peer region,
	// join the two into a symmetric mesh, and warm the peer on the same
	// phase workload so its cache holds the shared hot set before
	// measurement — the live twin of the simulated runner's peer warm.
	var peer *live.Cluster
	if len(spec.PeerRegions) > 0 {
		peerRegion, _ := geo.ParseRegion(spec.PeerRegions[0])
		peer, err = boot(peerRegion, nil, "")
		if err != nil {
			return nil, fmt.Errorf("scenario %q live peer: %w", spec.Name, err)
		}
		defer peer.Close()
		if err := load(peer); err != nil {
			return nil, err
		}
		matrix := geo.DefaultMatrix()
		cluster.Peer(peerRegion, peer.CacheAddr(), matrix.Get(region, peerRegion))
		peer.Peer(region, cluster.CacheAddr(), matrix.Get(peerRegion, region))
		res.PeerRegion = peerRegion.String()

		// The peer serves no clients of its own during the smoke, so freeze
		// its wall-clock reconfiguration loop: a periodic tick mid-warm
		// would drain the popularity window (EndPeriod) out from under the
		// explicit ForceReconfigure below, leaving an empty configuration —
		// and an empty digest. The warm sequence drives reconfiguration
		// itself; the advertiser keeps digesting the static warm cache.
		peer.Node().Stop()
		// Freeze the measured cluster's loop too: how many measured reads
		// the peer assists would otherwise depend on where its wall-clock
		// reconfiguration lands, and a run with only a couple of
		// peer-assisted reads lets one slow read flip the paired means.
		cluster.Node().Stop()
		peerReader, err := live.NewNetworkReader(peer, peerRegion)
		if err != nil {
			return nil, fmt.Errorf("scenario %q live peer: %w", spec.Name, err)
		}
		peerGen := phase.Workload.generator(opts.Objects, opts.Seed+501)
		for i := 0; i < opts.Ops/2; i++ {
			if i == opts.Ops/4 {
				peer.Node().ForceReconfigure()
			}
			peerReader.Read(workload.KeyName(peerGen.Next()))
		}
		peerReader.FlushPopulation()
		peerReader.Close()
		peer.PushDigests()
	}

	reader, err := live.NewNetworkReader(cluster, region)
	if err != nil {
		return nil, fmt.Errorf("scenario %q live: %w", spec.Name, err)
	}
	defer reader.Close()

	gen := phase.Workload.generator(opts.Objects, opts.Seed)
	lat := stats.NewLatencySummary(opts.Ops)
	peerLat := stats.NewLatencySummary(opts.Ops)
	wanLat := stats.NewLatencySummary(opts.Ops)
	warmup := opts.Ops / 3
	var scrapeStart []metrics.Family
	for i := 0; i < warmup+opts.Ops; i++ {
		if i == warmup {
			// Measurement starts here: activate the phase's chaos events,
			// snapshot /metrics so the latency table covers only the
			// measured window, and clear the flight recorder so the
			// slowest-trace table excludes warm-up ops.
			sched.SetEpoch(time.Now())
			cluster.Recorder().Reset()
			if scrapeStart, err = scrapeMetrics(cluster.MetricsAddr()); err != nil {
				return nil, fmt.Errorf("scenario %q live scrape: %w", spec.Name, err)
			}
		}
		key := workload.KeyName(gen.Next())
		_, info, err := reader.ReadDetailed(key)
		if i < warmup {
			continue
		}
		if err != nil {
			res.Errors++
			continue
		}
		lat.Add(info.Latency)
		res.CacheChunks += info.CacheChunks
		res.PeerChunks += info.PeerChunks
		if info.PeerChunks > 0 {
			peerLat.Add(info.Latency)
		} else if info.CacheChunks == 0 {
			wanLat.Add(info.Latency)
		}
		if opts.Traces > 0 && info.Trace != nil {
			res.SlowTraces = append(res.SlowTraces, *info.Trace)
			sort.Slice(res.SlowTraces, func(a, b int) bool {
				return res.SlowTraces[a].TotalMS > res.SlowTraces[b].TotalMS
			})
			if len(res.SlowTraces) > opts.Traces {
				res.SlowTraces = res.SlowTraces[:opts.Traces]
			}
		}
	}
	res.Latency = lat.Summarize()

	scrapeEnd, err := scrapeMetrics(cluster.MetricsAddr())
	if err != nil {
		return nil, fmt.Errorf("scenario %q live scrape: %w", spec.Name, err)
	}
	res.OpLatencies = opLatencies(scrapeStart, scrapeEnd)
	res.Flight, err = scrapeTraces(cluster.MetricsAddr())
	if err != nil {
		return nil, fmt.Errorf("scenario %q live traces: %w", spec.Name, err)
	}

	if peer != nil {
		s := peerLat.Summarize()
		res.PeerReads = &s
		w := wanLat.Summarize()
		res.WANReads = &w
		res.PeerHits, res.PeerMisses = peer.CoopTable().PeerReads()
		if age, ok := cluster.CoopTable().StalestAge(); ok {
			res.DigestAgeMS = int64(age / time.Millisecond)
		}
	}
	return res, nil
}

// scrapeTraces fetches the cluster's /debug/traces flight-recorder
// snapshot over real HTTP at the phase boundary and condenses it to one
// row per opcode, sorted by opcode. The cluster shares one recorder across
// its store, cache and hint servers, so the summary covers every hop the
// measured reads touched.
func scrapeTraces(addr string) ([]FlightOp, error) {
	resp, err := http.Get("http://" + addr + "/debug/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("traces %s: %s", addr, resp.Status)
	}
	var snap trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	out := make([]FlightOp, 0, len(snap.Ops))
	for op, ot := range snap.Ops {
		f := FlightOp{Op: op, Retained: len(ot.Slowest), Errors: len(ot.Errors)}
		if len(ot.Slowest) > 0 {
			f.SlowestUS = ot.Slowest[0].DurUS
			f.SlowestTrace = ot.Slowest[0].TraceID
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out, nil
}

// scrapeMetrics fetches and parses a cluster's /metrics endpoint — the
// same wire path an external Prometheus scraper would take, so the live
// runner exercises exposition and parsing end to end.
func scrapeMetrics(addr string) ([]metrics.Family, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// opLatencies diffs the measurement-start and measurement-end scrapes and
// derives the cache server's per-opcode queue-wait and execute percentiles
// from the histogram deltas, in opcode order.
func opLatencies(start, end []metrics.Family) []OpLatency {
	ex, ok := metrics.SelectFamily(end, metrics.NameServerOpExecute)
	if !ok {
		return nil
	}
	qw, _ := metrics.SelectFamily(end, metrics.NameServerOpQueueWait)
	ex0, _ := metrics.SelectFamily(start, metrics.NameServerOpExecute)
	qw0, _ := metrics.SelectFamily(start, metrics.NameServerOpQueueWait)

	sel := func(f metrics.Family, s metrics.Sample) map[string]string {
		m := make(map[string]string, len(f.Labels))
		for i, name := range f.Labels {
			if i < len(s.LabelValues) {
				m[name] = s.LabelValues[i]
			}
		}
		return m
	}
	var out []OpLatency
	for _, s := range ex.Samples {
		labels := sel(ex, s)
		if labels["server"] != "cache" {
			continue
		}
		prev, _ := metrics.SelectSample(ex0, labels)
		d := metrics.DeltaSample(s, prev)
		if d.Count == 0 {
			continue
		}
		ol := OpLatency{
			Op:        labels["op"],
			Count:     d.Count,
			ExecP50MS: 1000 * metrics.Quantile(ex.Buckets, d, 0.50),
			ExecP99MS: 1000 * metrics.Quantile(ex.Buckets, d, 0.99),
		}
		if qs, ok := metrics.SelectSample(qw, labels); ok {
			q0, _ := metrics.SelectSample(qw0, labels)
			qd := metrics.DeltaSample(qs, q0)
			ol.QueueP50MS = 1000 * metrics.Quantile(qw.Buckets, qd, 0.50)
			ol.QueueP99MS = 1000 * metrics.Quantile(qw.Buckets, qd, 0.99)
		}
		out = append(out, ol)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// loadWorkingSet fills the smoke working set — opts.Objects objects of the
// same deterministic payload — into the cluster's backend. Shared by every
// live runner so their deployments load identically.
func loadWorkingSet(c *live.Cluster, opts LiveOptions) error {
	payload := make([]byte, liveObjectBytes)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	for i := 0; i < opts.Objects; i++ {
		if err := c.Backend().PutObject(workload.KeyName(i), payload); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// rescalePhase maps the phase's hot key ranges from an n-object working
// set onto an m-object one, preserving their relative position and width.
func rescalePhase(p Phase, n, m int) Phase {
	scaleRange := func(lo, hi int) (int, int) {
		nlo := lo * m / n
		nhi := hi * m / n
		if nhi <= nlo {
			nhi = nlo + 1
		}
		if nhi > m {
			nhi = m
			if nlo >= nhi {
				nlo = nhi - 1
			}
		}
		return nlo, nhi
	}
	var scaleWorkload func(w Workload) Workload
	scaleWorkload = func(w Workload) Workload {
		if w.Kind == WorkloadHotspot {
			w.HotLo, w.HotHi = scaleRange(w.HotLo, w.HotHi)
		}
		if len(w.Components) > 0 {
			comps := make([]MixComponent, len(w.Components))
			copy(comps, w.Components)
			for i, c := range comps {
				comps[i].Workload = scaleWorkload(c.Workload)
			}
			w.Components = comps
		}
		return w
	}
	p.Workload = scaleWorkload(p.Workload)
	if len(p.Events) > 0 {
		events := make([]Event, len(p.Events))
		copy(events, p.Events)
		for i, e := range events {
			if e.Kind == EventFlashCrowd {
				events[i].HotLo, events[i].HotHi = scaleRange(e.HotLo, e.HotHi)
			}
		}
		p.Events = events
	}
	return p
}
