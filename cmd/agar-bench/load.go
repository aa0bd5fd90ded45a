package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync/atomic"
	"time"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/loadgen"
	"github.com/agardist/agar/internal/scenario"
	"github.com/agardist/agar/internal/wire"
)

// loadParams carries the -load flag set into the sweep driver.
type loadParams struct {
	rates       string
	duration    time.Duration
	warmup      time.Duration
	conns       int
	window      int
	objects     int
	chunks      int
	chunkBytes  int
	mix         string
	seed        int64
	skew        float64
	out         string
	scenariosMD string
}

// pipeIssuer turns loadgen ops into pipelined wire calls against the cache
// server, spreading them round-robin over a fixed fleet of pipelined
// connections. Each op runs in its own goroutine so a full in-flight
// window applies back-pressure to the op (whose latency clock started at
// its scheduled arrival), never to the generator's schedule.
type pipeIssuer struct {
	clients []*live.PipelinedCache
	next    atomic.Uint64
	nchunks int
	mgetIdx []int
}

// chunkIndexFor picks one deterministic chunk index per key, so a "get"
// op's target is a pure function of the generator's (kind, key) schedule.
func chunkIndexFor(key string, nchunks int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nchunks))
}

func (is *pipeIssuer) Issue(op loadgen.Op, done func(error)) {
	c := is.clients[is.next.Add(1)%uint64(len(is.clients))]
	go func() {
		// Raw frames rather than the convenience Get/GetMulti: the issuer
		// stamps each op's deterministic trace ID into the frame's trace
		// header, so the report's SlowOps join against the server's
		// /debug/traces flight recorder.
		h := wire.Header{Key: op.Key, Trace: op.Trace}
		switch op.Kind {
		case "mget":
			h.Op, h.Indices = wire.OpMGet, is.mgetIdx
		default: // "get"
			h.Op, h.Index = wire.OpGet, chunkIndexFor(op.Key, is.nchunks)
		}
		resp, err := c.Go(wire.Message{Header: h}).Wait()
		if err == nil && resp.Header.Op == wire.OpNotFound {
			err = fmt.Errorf("load: %s %s: not found", op.Kind, op.Key)
		}
		done(err)
	}()
}

// runLoad boots a localhost cluster, prepopulates its cache, sweeps the
// offered-load ladder through pipelined connections, and writes
// BENCH_load.json (plus the marker-fenced SCENARIOS.md section when
// -scenarios-md is set).
func runLoad(p loadParams) {
	rates, err := loadgen.ParseRates(p.rates)
	if err != nil {
		fatalf("%v", err)
	}
	mix, err := loadgen.ParseMix(p.mix)
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range mix {
		if w.Kind != "get" && w.Kind != "mget" {
			fatalf("-mix kind %q not supported (get, mget)", w.Kind)
		}
	}
	if p.conns < 1 || p.objects < 1 || p.chunks < 1 || p.chunkBytes < 1 {
		fatalf("-conns, -objects, -chunks and -chunk-bytes must be positive")
	}

	// The cluster runs with zero injected WAN delay and a reconfiguration
	// period beyond any sweep: the target under test is the cache server's
	// wire path, not the simulated geography around it.
	cl, err := live.StartCluster(live.ClusterConfig{
		ClientRegion:   geo.Frankfurt,
		CacheBytes:     2 * int64(p.objects) * int64(p.chunks) * int64(p.chunkBytes),
		ChunkBytes:     int64(p.chunkBytes),
		ReconfigPeriod: time.Hour,
		DelayScale:     0,
	})
	if err != nil {
		fatalf("start cluster: %v", err)
	}
	defer cl.Close()
	// The node's cache admits only knapsack-configured chunks, which would
	// gate residency on popularity history. The sweep measures the
	// wire path against a fully resident working set, so admission
	// opens before prepopulation.
	cl.Node().Cache().SetAdmission(func(cache.EntryID) bool { return true })

	mgetIdx := make([]int, p.chunks)
	for i := range mgetIdx {
		mgetIdx[i] = i
	}
	if err := prepopulate(cl.CacheAddr(), p.objects, p.chunks, p.chunkBytes); err != nil {
		fatalf("prepopulate: %v", err)
	}
	fmt.Printf("load: cluster up at %s, %d objects x %d chunks x %dB resident\n",
		cl.CacheAddr(), p.objects, p.chunks, p.chunkBytes)

	base := loadgen.Config{
		Duration: p.duration,
		Warmup:   p.warmup,
		Seed:     p.seed,
		Mix:      mix,
		Keys:     p.objects,
		Skew:     p.skew,
	}
	mkIssuer := func() (loadgen.Issuer, func(), error) {
		clients := make([]*live.PipelinedCache, 0, p.conns)
		for i := 0; i < p.conns; i++ {
			c, err := live.DialPipelined(cl.CacheAddr(), p.window)
			if err != nil {
				for _, prev := range clients {
					prev.Close()
				}
				return nil, nil, err
			}
			clients = append(clients, c)
		}
		teardown := func() {
			for _, c := range clients {
				c.Close()
			}
		}
		return &pipeIssuer{clients: clients, nchunks: p.chunks, mgetIdx: mgetIdx}, teardown, nil
	}
	points, err := loadgen.Sweep(base, rates, mkIssuer, func(pt loadgen.Point) {
		eff := 100 * pt.AchievedOps / pt.OfferedOps
		fmt.Printf("load: %8.0f ops/s offered -> %8.0f achieved (%5.1f%%, max send lag %.1f ms)\n",
			pt.OfferedOps, pt.AchievedOps, eff, pt.SendLagMaxUs/1000)
	})
	if err != nil {
		fatalf("sweep: %v", err)
	}

	rep := &loadgen.Report{
		Schema:      loadgen.Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Setup: map[string]any{
			"conns":       p.conns,
			"window":      p.window,
			"objects":     p.objects,
			"chunks":      p.chunks,
			"chunk_bytes": p.chunkBytes,
			"mix":         p.mix,
			"seed":        p.seed,
			"skew":        p.skew,
			"duration_s":  p.duration.Seconds(),
			"warmup_s":    p.warmup.Seconds(),
		},
		Points: points,
	}
	rep.ComputeKnee()
	if err := rep.Validate(); err != nil {
		fatalf("report failed its own validation: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encode report: %v", err)
	}
	if err := os.WriteFile(p.out, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("load: wrote %s (%d points)\n", p.out, len(points))
	fmt.Println()
	fmt.Print(rep.MarkdownSection())

	if p.scenariosMD != "" {
		if err := spliceScenarios(p.scenariosMD, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("load: updated %s\n", p.scenariosMD)
	}
}

// prepopulate batch-loads every object's chunks into the cache server so
// the sweep measures a warm read path, not fill traffic.
func prepopulate(addr string, objects, chunks, chunkBytes int) error {
	rc := live.NewRemoteCache(addr)
	defer rc.Close()
	for i := 0; i < objects; i++ {
		key := fmt.Sprintf("obj-%d", i)
		payload := make(map[int][]byte, chunks)
		for j := 0; j < chunks; j++ {
			b := make([]byte, chunkBytes)
			for k := range b {
				b[k] = byte(i + j)
			}
			payload[j] = b
		}
		if err := rc.PutMulti(key, payload); err != nil {
			return fmt.Errorf("put %s: %w", key, err)
		}
	}
	return nil
}

// spliceScenarios replaces (or appends) the marker-fenced load section in
// the SCENARIOS.md at path, leaving the rest of the file to agar-suite.
func spliceScenarios(path string, rep *loadgen.Report) error {
	doc := ""
	if data, err := os.ReadFile(path); err == nil {
		doc = string(data)
	} else if !os.IsNotExist(err) {
		return err
	}
	section := fmt.Sprintf("## Open-loop saturation sweep (agar-bench -load)\n\ngenerated %s · setup %s\n\n%s",
		rep.GeneratedAt, setupLine(rep.Setup), rep.MarkdownSection())
	out := scenario.SpliceMarked(doc, scenario.LoadSectionBegin, scenario.LoadSectionEnd, section)
	return os.WriteFile(path, []byte(out), 0o644)
}

// setupLine renders the report's setup echo compactly for the markdown
// header.
func setupLine(setup map[string]any) string {
	return fmt.Sprintf("%v conns × window %v, %v objects × %v chunks × %vB, mix %v",
		setup["conns"], setup["window"], setup["objects"], setup["chunks"],
		setup["chunk_bytes"], setup["mix"])
}

// runLoadCheck decodes a BENCH_load.json and machine-checks it against the
// schema — the CI gate behind agar-bench -loadcheck.
func runLoadCheck(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		fatalf("loadcheck %s: %v", path, err)
	}
	if err := rep.Validate(); err != nil {
		fatalf("loadcheck %s: %v", path, err)
	}
	knee := "no knee recorded"
	if rep.Knee != nil {
		knee = fmt.Sprintf("knee %.0f ops/s (achieved %.0f, %s p99 %.0f µs)",
			rep.Knee.OfferedOps, rep.Knee.AchievedOps, rep.Knee.DominantOp, rep.Knee.P99Us)
	}
	fmt.Printf("loadcheck: %s ok — %d points, %s\n", path, len(rep.Points), knee)
}
