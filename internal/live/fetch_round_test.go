package live

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/agardist/agar/internal/geo"
)

// stubHinter hints the same chunks for every key.
type stubHinter []int

func (h stubHinter) Hint(string) ([]int, error) { return h, nil }

// spansNamed returns the read's spans with the given name.
func spansNamed(info ReadInfo, name string) []Span {
	var out []Span
	for _, sp := range info.Trace.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestCacheMissesFallThroughInOneStoreExchange: two hinted chunks that live
// in the same region and miss the cache fall through to that region's
// store together, in one batched exchange.
func TestCacheMissesFallThroughInOneStoreExchange(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(5)).Read(data)
	if err := cluster.Backend().PutObject("obj", data); err != nil {
		t.Fatal(err)
	}
	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	reader.hinter.(*RemoteHinter).Close()
	reader.hinter = stubHinter{0, 6} // both of Frankfurt's chunks; the cache is empty

	got, info, err := reader.ReadDetailed("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read decoded the wrong bytes")
	}
	spans := spansNamed(info, "store-mget:frankfurt")
	if len(spans) != 1 || spans[0].Chunks != 2 {
		t.Fatalf("store-mget:frankfurt spans %+v, want one carrying 2 chunks; all spans %+v", spans, info.Trace.Spans)
	}
}

// TestDegradedWaveBatchesPerRegion: when a dead store costs two chunks, the
// substitution wave fetches both replacements from the one region that
// holds them in a single batched exchange, and the read decodes the right
// bytes.
func TestDegradedWaveBatchesPerRegion(t *testing.T) {
	// Three regions under 4+2: two chunks each. Frankfurt reads its own and
	// Dublin's chunks; N. Virginia holds the only substitutes.
	cluster, err := StartCluster(ClusterConfig{
		Regions:      []geo.RegionID{geo.Frankfurt, geo.Dublin, geo.NVirginia},
		K:            4,
		M:            2,
		ClientRegion: geo.Frankfurt,
		CacheBytes:   90 * 2048,
		ChunkBytes:   2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	data := make([]byte, 8_000)
	rand.New(rand.NewSource(7)).Read(data)
	if err := cluster.Backend().PutObject("obj", data); err != nil {
		t.Fatal(err)
	}
	reader, err := NewNetworkReader(cluster, geo.Frankfurt)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	cluster.storeSrvs[geo.Dublin].Close()

	got, info, err := reader.ReadDetailed("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read decoded the wrong bytes")
	}
	spans := spansNamed(info, "degraded-mget:n-virginia")
	if len(spans) != 1 || spans[0].Chunks != 2 {
		t.Fatalf("degraded-mget:n-virginia spans %+v, want one carrying 2 chunks; all spans %+v", spans, info.Trace.Spans)
	}
}
