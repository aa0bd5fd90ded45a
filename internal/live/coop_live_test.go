package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// startPeeredClusters boots two live clusters (Frankfurt and Dublin),
// loads the same working set into both backends, and joins them into a
// symmetric cooperative mesh at the given peer latency.
func startPeeredClusters(t *testing.T, objects int, objBytes int) (fra, dub *Cluster, data map[string][]byte) {
	t.Helper()
	mk := func(region geo.RegionID) *Cluster {
		c, err := StartCluster(ClusterConfig{
			K:            4,
			M:            2,
			ClientRegion: region,
			CacheBytes:   60 * 2048,
			ChunkBytes:   2048,
			DelayScale:   0, // unit test: no injected delays
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	fra = mk(geo.Frankfurt)
	dub = mk(geo.Dublin)

	rng := rand.New(rand.NewSource(11))
	data = make(map[string][]byte, objects)
	for i := 0; i < objects; i++ {
		key := fmt.Sprintf("object-%d", i)
		payload := make([]byte, objBytes)
		rng.Read(payload)
		data[key] = payload
		if err := fra.Backend().PutObject(key, payload); err != nil {
			t.Fatal(err)
		}
		if err := dub.Backend().PutObject(key, payload); err != nil {
			t.Fatal(err)
		}
	}

	peerLat := 25 * time.Millisecond
	fra.Peer(geo.Dublin, dub.CacheAddr(), peerLat)
	dub.Peer(geo.Frankfurt, fra.CacheAddr(), peerLat)
	return fra, dub, data
}

// warmCluster drives reads through a cluster's own reader until the node
// caches the object, then returns.
func warmCluster(t *testing.T, c *Cluster, region geo.RegionID, key string) {
	t.Helper()
	reader, err := NewNetworkReader(c, region)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	for i := 0; i < 30; i++ {
		if _, _, err := reader.ReadDetailed(key); err != nil {
			t.Fatal(err)
		}
	}
	c.Node().ForceReconfigure()
	if _, _, err := reader.ReadDetailed(key); err != nil {
		t.Fatal(err)
	}
	reader.FlushPopulation()
	if len(c.Node().Cache().IndicesOf(key)) == 0 {
		t.Fatalf("warm-up left %s's cache empty for %q", region, key)
	}
}

// TestPeeredClustersCoopSmoke is the live twin of the simulator's §VI
// test: Dublin's cache holds a hot object, its digest reaches Frankfurt,
// and a Frankfurt reader serves the covered chunks from Dublin's cache —
// with the peer's cache server accounting the traffic as peer hits.
func TestPeeredClustersCoopSmoke(t *testing.T) {
	fra, dub, data := startPeeredClusters(t, 4, 8_000)

	warmCluster(t, dub, geo.Dublin, "object-0")
	if failed := dub.PushDigests(); failed != 0 {
		t.Fatalf("%d digest pushes failed", failed)
	}

	// Frankfurt's mirror of Dublin must now advertise the cached chunks.
	mirror := fra.CoopTable().Mirror(geo.Dublin.String())
	if got := mirror.IndicesOf("object-0"); !reflect.DeepEqual(got, dub.Node().Cache().IndicesOf("object-0")) {
		t.Fatalf("mirror %v != dublin residency %v", got, dub.Node().Cache().IndicesOf("object-0"))
	}

	reader, err := NewNetworkReader(fra, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	got, info, err := reader.ReadDetailed("object-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data["object-0"]) {
		t.Fatal("peered read returned wrong data")
	}
	if info.PeerChunks == 0 {
		t.Fatalf("no chunks served by the peer: %+v", info)
	}

	// The peer's cache server accounted the cooperative traffic.
	if hits, misses := dub.CoopTable().PeerReads(); hits == 0 {
		t.Fatalf("peer cache server reported no peer hits (misses %d)", misses)
	}
	if _, ok := fra.CoopTable().StalestAge(); !ok {
		t.Fatal("frankfurt cache server reports no digest age")
	}
}

// TestPeerStaleDigestFallsBackToStores wipes the peer's cache after its
// digest was advertised: the mirror still routes chunks to the peer, the
// peer read misses, and the read must fall back to the WAN stores with no
// error surfaced and the right bytes decoded exactly once.
func TestPeerStaleDigestFallsBackToStores(t *testing.T) {
	fra, dub, data := startPeeredClusters(t, 2, 8_000)

	warmCluster(t, dub, geo.Dublin, "object-0")
	if failed := dub.PushDigests(); failed != 0 {
		t.Fatalf("%d digest pushes failed", failed)
	}

	reader, err := NewNetworkReader(fra, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	// Evict everything the digest advertised — the mirror is now fully
	// stale, and the peer's counters will see the misses.
	dub.Node().Cache().Clear()

	got, info, err := reader.ReadDetailed("object-0")
	if err != nil {
		t.Fatalf("stale-digest read errored: %v", err)
	}
	if !bytes.Equal(got, data["object-0"]) {
		t.Fatal("stale-digest read returned wrong data")
	}
	if info.PeerChunks != 0 {
		t.Fatalf("peer chunks reported after peer wipe: %+v", info)
	}

	if hits, misses := dub.CoopTable().PeerReads(); misses == 0 {
		t.Fatalf("peer cache server reported no peer misses (hits %d)", hits)
	}
}

// ParsePeers is covered by the table-driven tests in peers_test.go.
