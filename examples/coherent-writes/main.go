// Coherent writes on the deployed design: a localhost live cluster serves
// an object from its cache, then a versioned NetworkWriter overwrites it.
// Every write stamps one hybrid-logical-clock version, writes each chunk
// through to its region's store under that version and raises the cache
// server's version floor, which drops the pre-write chunks. A reader whose
// Session saw the write never decodes anything older (read-your-writes),
// and a write stamped older than the key's current version is refused
// everywhere (per-key last-writer-wins).
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/live"
)

func main() {
	cluster, err := live.StartCluster(live.ClusterConfig{
		ClientRegion: geo.Frankfurt,
		CacheBytes:   60 * 2048,
		ChunkBytes:   2048,
		DelayScale:   0.01, // 980 ms Tokyo round trips become 9.8 ms
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	objSize := 9 * 1024
	v1 := bytes.Repeat([]byte{'A'}, objSize)
	if err := cluster.Backend().PutObject("doc", v1); err != nil {
		log.Fatal(err)
	}

	reader, err := live.NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()

	// Warm the cache: teach the monitor the key is hot, reconfigure, and
	// read once more so the hinted chunks populate the cache server.
	for i := 0; i < 30; i++ {
		if _, _, err := reader.ReadDetailed("doc"); err != nil {
			log.Fatal(err)
		}
	}
	cluster.Node().ForceReconfigure()
	if _, _, err := reader.ReadDetailed("doc"); err != nil {
		log.Fatal(err)
	}
	reader.FlushPopulation()
	fmt.Printf("cache warm: frankfurt holds chunks %v of \"doc\"\n", cluster.Node().Cache().IndicesOf("doc"))

	// A coherent write from Sydney, recorded in the client's session.
	writer := live.NewNetworkWriter(cluster, geo.Sydney)
	defer writer.Close()
	sess := live.NewSession()
	v2 := bytes.Repeat([]byte{'B'}, objSize)
	ver, err := writer.WriteSession("doc", v2, sess)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("write committed at version %d; cache now holds %v\n", ver, cluster.Node().Cache().IndicesOf("doc"))

	got, info, err := reader.ReadSession("doc", sess)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		log.Fatal("session read returned stale data")
	}
	fmt.Printf("session read sees the write: %q... at version %d (%d cache chunks, %d stale chunks dropped)\n",
		got[:1], info.Version, info.CacheChunks, info.StaleDrops)

	// A writer whose clock lags by a minute stamps an older version: every
	// store refuses it, so it can never overwrite the newer generation.
	laggard := live.NewNetworkWriter(cluster, geo.Tokyo)
	defer laggard.Close()
	laggard.SetClock(func() time.Time { return time.Now().Add(-time.Minute) })
	_, err = laggard.Write("doc", bytes.Repeat([]byte{'C'}, objSize))
	var stale *backend.StaleError
	if !errors.As(err, &stale) {
		log.Fatalf("older write was not refused: %v", err)
	}
	fmt.Printf("older write refused: %v\n", err)

	got, _, err = reader.ReadSession("doc", sess)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		log.Fatal("refused write leaked into a read")
	}
	fmt.Printf("reads still return %q...: last writer wins per key\n", got[:1])
}
