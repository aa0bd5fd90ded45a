package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/agardist/agar/internal/core"
	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
)

// clientRegion is where the Agar node, its cache and every lane run: the
// paper's Frankfurt client.
const clientRegion = geo.Frankfurt

// popularityDraws is how many Zipf draws set-up feeds the request monitor
// before the timed reconfiguration, on top of one access per key (so the
// knapsack always weighs every object, whatever the seed).
const popularityDraws = 20000

// lane is one closed client: a reader, a writer, the session that carries
// its read-your-writes floors, and a payload buffer the writer reuses
// (NetworkWriter.Write does not retain its input).
type lane struct {
	reader *live.NetworkReader
	writer *live.NetworkWriter
	sess   *live.Session
	buf    []byte
}

// rig is one set-up system under test: a localhost cluster loaded with a
// workload's objects, reconfigured once on a seeded popularity snapshot,
// with the cache filled, plus the lanes that drive it.
type rig struct {
	w       workload
	cluster *live.Cluster
	lanes   []*lane
	keys    []string
	pm      *payloadMaker
	acks    ackTable
	// owner is the lane every operation on a key runs on when the workload
	// has writes (see scheduler).
	owner []int
	// completed counts operations that have returned, for the sampler.
	completed atomic.Int64

	reconfigS         float64
	configuredObjects int
	configuredChunks  int
}

func chunkBytes(w workload) int {
	codec, err := erasure.New(codeK, codeM)
	if err != nil {
		panic(err)
	}
	return codec.ChunkSize(w.ObjectBytes)
}

// setUp runs phase 1 of a run: start the cluster, load the objects, record
// popularity, time one quiescent reconfiguration, and fill the cache through
// real reads of every configured key.
func setUp(w workload, seed uint64, lanes int) (*rig, error) {
	cb := int64(chunkBytes(w))
	cluster, err := live.StartCluster(live.ClusterConfig{
		K: codeK, M: codeM,
		ClientRegion: clientRegion,
		CacheBytes:   int64(w.CacheSlots) * cb,
		ChunkBytes:   cb,
		// The benchmark alone decides when reconfiguration runs.
		ReconfigPeriod: time.Hour,
		DelayScale:     w.DelayScale,
	})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	g := &rig{
		w:       w,
		cluster: cluster,
		keys:    make([]string, w.Objects),
		pm:      newPayloadMaker(seed, w.ObjectBytes),
		acks:    make(ackTable, w.Objects),
	}
	for id := range g.keys {
		g.keys[id] = keyName(id)
		payload := g.pm.fill(make([]byte, g.pm.size()), id, 0)
		if err := cluster.Backend().PutObject(g.keys[id], payload); err != nil {
			g.close()
			return nil, fmt.Errorf("load %s: %w", g.keys[id], err)
		}
	}

	// Popularity: the same Zipf and key permutation the op stream uses, on
	// its own random stream, recorded straight into the node (no WAN sleep).
	node := cluster.Node()
	perm := keyPerm(w.Objects, seed)
	z := newZipf(w.Objects, w.Zipf)
	g.owner = balancedOwners(perm, z, lanes)
	r := newRNG(seed ^ 0x706f70756c6172) // "popular"
	for id := range g.keys {
		node.HandleRead(g.keys[id])
	}
	for i := 0; i < popularityDraws; i++ {
		node.HandleRead(g.keys[perm[z.draw(r)]])
	}
	t0 := time.Now()
	cfg := node.ForceReconfigure()
	g.reconfigS = time.Since(t0).Seconds()
	g.configuredObjects, g.configuredChunks = len(cfg.Options), cfg.Weight

	for i := 0; i < lanes; i++ {
		reader, err := live.NewNetworkReader(cluster, clientRegion)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("lane %d reader: %w", i, err)
		}
		g.lanes = append(g.lanes, &lane{
			reader: reader,
			writer: live.NewNetworkWriter(cluster, clientRegion),
			sess:   live.NewSession(),
			buf:    make([]byte, g.pm.size()),
		})
	}
	if err := g.fillCache(cfg); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// balancedOwners assigns every key to a lane so that the lanes carry equal
// shares of the traffic: keys in order of popularity, each to the lane with
// the least so far. A hash would leave it to the seed whether the hottest
// keys share a lane.
func balancedOwners(perm []int, z *zipf, lanes int) []int {
	owner := make([]int, len(perm))
	load := make([]float64, lanes)
	prev := 0.0
	for rank, id := range perm {
		least := 0
		for li := range load {
			if load[li] < load[least] {
				least = li
			}
		}
		owner[id] = least
		load[least] += z.cdf[rank] - prev
		prev = z.cdf[rank]
	}
	return owner
}

// fillCache reads every configured key once, spread over the lanes, and
// waits for the asynchronous population those reads queue.
func (g *rig) fillCache(cfg *core.Config) error {
	var ids []int
	for id, key := range g.keys {
		if _, ok := cfg.Options[key]; ok {
			ids = append(ids, id)
		}
	}
	errs := make([]error, len(g.lanes))
	var wg sync.WaitGroup
	for li, ln := range g.lanes {
		wg.Add(1)
		go func(li int, ln *lane) {
			defer wg.Done()
			for i := li; i < len(ids); i += len(g.lanes) {
				id := ids[i]
				data, _, err := ln.reader.ReadSession(g.keys[id], ln.sess)
				if err == nil {
					err = checkPayload(data, id, g.pm.size(), 0)
				}
				if err != nil {
					errs[li] = fmt.Errorf("fill %s: %w", g.keys[id], err)
					return
				}
			}
			ln.reader.FlushPopulation()
		}(li, ln)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops every lane and the cluster; Cluster.Close panics if any
// server's wire.BufferPool still has buffers outstanding, which is the leak
// check the smoke test relies on.
func (g *rig) close() {
	for _, ln := range g.lanes {
		ln.reader.Close()
		ln.writer.Close()
	}
	g.cluster.Close()
}
