// Command agar-node runs one region's Agar deployment: the request
// monitor, region manager, cache manager and chunk cache, serving hints
// over TCP and optionally UDP, and the cache over TCP.
//
// The node probes each region's chunk-read latency at start-up from the
// calibrated latency model (in a real deployment the probes would hit the
// actual store servers) and reconfigures its cache every period, solving
// the cache-configuration knapsack exactly (core.SolverExact). With
// -peers, the node joins the cooperative cache mesh (§VI): it mirrors the
// residency digests peer cache servers push to its cache port, values
// peer-covered chunks in its knapsack, and advertises its own residency
// back every -digest-period.
//
// Usage:
//
//	agar-node -region frankfurt -cache-mb 10 -period 30s \
//	          -hint-addr 127.0.0.1:7201 -cache-addr 127.0.0.1:7202 \
//	          -udp-hint-addr 127.0.0.1:7203 \
//	          -peers dublin=10.0.0.7:7202@25ms
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/agardist/agar/internal/coop"
	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
)

func main() {
	var (
		region    = flag.String("region", "frankfurt", "region this node serves")
		cacheMB   = flag.Float64("cache-mb", 10, "cache size in paper megabytes (1 MB objects, k=9)")
		period    = flag.Duration("period", 30*time.Second, "reconfiguration period")
		hintAddr  = flag.String("hint-addr", "127.0.0.1:7201", "TCP hint listen address")
		cacheAddr = flag.String("cache-addr", "127.0.0.1:7202", "cache listen address")
		udpAddr   = flag.String("udp-hint-addr", "", "optional UDP hint listen address")
		k         = flag.Int("k", 9, "data chunks per object")
		m         = flag.Int("m", 3, "parity chunks per object")
		objBytes  = flag.Int64("object-bytes", 1<<20, "object size for slot accounting")
		peers     = flag.String("peers", "", "cooperative peer cache servers: region=host:port@latency[,...]")
		digest    = flag.Duration("digest-period", time.Second, "how often residency digests push to peers")
	)
	flag.Parse()

	r, err := geo.ParseRegion(*region)
	if err != nil {
		fatalf("%v", err)
	}
	peerSpecs, err := live.ParsePeers(*peers)
	if err != nil {
		fatalf("%v", err)
	}
	chunkBytes := (*objBytes + int64(*k) - 1) / int64(*k)
	slots := int64(*cacheMB * float64(int64(1)<<20) / float64(chunkBytes))
	node := core.NewNode(core.NodeParams{
		Region:         r,
		Regions:        geo.DefaultRegions(),
		Placement:      geo.NewRoundRobin(geo.DefaultRegions(), false),
		K:              *k,
		M:              *m,
		CacheBytes:     slots * chunkBytes,
		ChunkBytes:     chunkBytes,
		ReconfigPeriod: *period,
		CacheLatency:   20 * time.Millisecond,
		Solver:         core.SolverExact,
	})
	matrix := geo.DefaultMatrix()
	node.RegionManager().WarmUp(func(to geo.RegionID) time.Duration {
		return matrix.Get(r, to)
	}, 3)

	hintSrv, err := live.NewHintServer(*hintAddr, node)
	if err != nil {
		fatalf("hint server: %v", err)
	}
	// The cache server always speaks the mesh protocol: peers configured
	// on the remote side can push digests here even before this node lists
	// them in its own -peers.
	table := coop.NewTable()
	cacheSrv, err := live.NewCacheServerCoop(*cacheAddr, node.Cache(), table)
	if err != nil {
		fatalf("cache server: %v", err)
	}
	var adv *coop.Advertiser
	var peerConns []*live.RemoteCache
	if len(peerSpecs) > 0 {
		adv = coop.NewAdvertiser(r.String(), node.Cache(), *digest)
		for _, p := range peerSpecs {
			node.AddPeer(p.Region, table.Mirror(p.Region.String()), p.Latency)
			rc := live.NewRemoteCache(p.Addr)
			peerConns = append(peerConns, rc)
			adv.AddTarget(p.Region.String(), rc)
		}
		adv.Start()
	}
	var udpSrv *live.UDPHintServer
	if *udpAddr != "" {
		udpSrv, err = live.NewUDPHintServer(*udpAddr, node)
		if err != nil {
			fatalf("udp hint server: %v", err)
		}
	}
	node.Start()

	fmt.Printf("agar-node: region=%s slots=%d period=%v\n", r, slots, *period)
	fmt.Printf("agar-node: hints on %s (tcp)", hintSrv.Addr())
	if udpSrv != nil {
		fmt.Printf(" and %s (udp)", udpSrv.Addr())
	}
	fmt.Printf("; cache on %s\n", cacheSrv.Addr())
	for _, p := range peerSpecs {
		fmt.Printf("agar-node: peering with %s at %s (%v)\n", p.Region, p.Addr, p.Latency)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("agar-node: shutting down")
	if adv != nil {
		adv.Stop()
	}
	for _, rc := range peerConns {
		rc.Close()
	}
	node.Stop()
	hintSrv.Close()
	cacheSrv.Close()
	if udpSrv != nil {
		udpSrv.Close()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "agar-node: "+format+"\n", args...)
	os.Exit(1)
}
