package backend

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/store"
)

// clusterOn builds the standard 6-region RS(9,3) test cluster over an
// explicit blob adapter.
func clusterOn(t *testing.T, blob store.BlobStore) *Cluster {
	t.Helper()
	codec, err := erasure.New(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	placement := geo.NewRoundRobin(geo.DefaultRegions(), false)
	return NewClusterOn(geo.DefaultRegions(), codec, placement, blob)
}

// adapterVariants enumerates the blob stores the cluster seam tests sweep.
func adapterVariants(t *testing.T) map[string]func(t *testing.T) store.BlobStore {
	return map[string]func(t *testing.T) store.BlobStore{
		"mem": func(t *testing.T) store.BlobStore { return store.NewMem() },
		"disk": func(t *testing.T) store.BlobStore {
			d, err := store.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"remote": func(t *testing.T) store.BlobStore {
			srv := httptest.NewServer(store.NewGateway(store.NewMem()))
			t.Cleanup(srv.Close)
			return store.NewRemote(srv.URL)
		},
	}
}

// TestClusterRegionOutageUnderAdapters exercises the down-region paths of
// every adapter: Put and Get fail with ErrDown while a region is dark, the
// object still decodes from the surviving regions' chunks, recovery
// restores direct reads, and the durable chunks survived the outage.
func TestClusterRegionOutageUnderAdapters(t *testing.T) {
	for name, open := range adapterVariants(t) {
		t.Run(name, func(t *testing.T) {
			c := clusterOn(t, open(t))
			data := make([]byte, 30_000)
			rand.New(rand.NewSource(3)).Read(data)
			if err := c.PutObject("obj", data); err != nil {
				t.Fatal(err)
			}

			for _, r := range geo.DefaultRegions() {
				st := c.Store(r)
				st.SetDown(true)
				if !st.Down() {
					t.Fatalf("region %v not reported down", r)
				}
				// The data path fails fast with the typed error...
				if _, err := c.GetChunk("obj", chunkIn(c, "obj", r)); !errors.Is(err, ErrDown) {
					t.Fatalf("region %v down, GetChunk: %v", r, err)
				}
				if err := st.Put(ChunkID{Key: "other", Index: 0}, []byte("x")); !errors.Is(err, ErrDown) {
					t.Fatalf("region %v down, Put: %v", r, err)
				}
				// ...and the degraded read decodes around the dark region.
				got, err := c.GetObject("obj")
				if err != nil {
					t.Fatalf("region %v down: %v", r, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("region %v down: wrong data", r)
				}
				st.SetDown(false)
				// Recovery: the region's durable chunks are intact.
				if _, err := c.GetChunk("obj", chunkIn(c, "obj", r)); err != nil {
					t.Fatalf("region %v recovered, GetChunk: %v", r, err)
				}
			}

			// Two regions down (4 chunks lost > m=3): must fail.
			c.Store(geo.Tokyo).SetDown(true)
			c.Store(geo.Sydney).SetDown(true)
			if _, err := c.GetObject("obj"); err == nil {
				t.Fatal("read should fail with 4 chunks unavailable")
			}
		})
	}
}

// TestClusterPartialChunkAvailability deletes chunks up to and then past
// the code's redundancy under each adapter: m missing chunks decode, m+1
// do not, and GetMulti reports exactly the surviving subset.
func TestClusterPartialChunkAvailability(t *testing.T) {
	for name, open := range adapterVariants(t) {
		t.Run(name, func(t *testing.T) {
			c := clusterOn(t, open(t))
			data := make([]byte, 18_000)
			rand.New(rand.NewSource(5)).Read(data)
			if err := c.PutObject("obj", data); err != nil {
				t.Fatal(err)
			}
			total := c.Codec().Total()
			locs := c.Placement().Locate("obj", total)

			// Drop m chunks: still decodable.
			for idx := 0; idx < c.Codec().M(); idx++ {
				if !dropChunk(c.Store(locs[idx]), ChunkID{Key: "obj", Index: idx}) {
					t.Fatalf("chunk %d not present to delete", idx)
				}
			}
			got, err := c.GetObject("obj")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("decode with m missing: %v", err)
			}

			// The region-level batched read reports only survivors.
			r0 := locs[0]
			want := []int{}
			for idx := 0; idx < total; idx++ {
				if locs[idx] == r0 && idx >= c.Codec().M() {
					want = append(want, idx)
				}
			}
			all := make([]int, 0, total)
			for idx := 0; idx < total; idx++ {
				if locs[idx] == r0 {
					all = append(all, idx)
				}
			}
			found, err := c.Store(r0).GetMulti("obj", all)
			if err != nil {
				t.Fatal(err)
			}
			if len(found) != len(want) {
				t.Fatalf("GetMulti found %d of %v, want %v", len(found), all, want)
			}

			// Drop one more: past redundancy, the object is gone.
			m := c.Codec().M()
			if !dropChunk(c.Store(locs[m]), ChunkID{Key: "obj", Index: m}) {
				t.Fatalf("chunk %d not present to delete", m)
			}
			if _, err := c.GetObject("obj"); err == nil {
				t.Fatal("decode succeeded with m+1 chunks missing")
			}
		})
	}
}

// TestClusterDiskReopenAfterRestart loads a cluster over a disk adapter,
// tears everything down, and rebuilds the cluster over a reopened adapter
// on the same root: the working set must decode without reloading.
func TestClusterDiskReopenAfterRestart(t *testing.T) {
	root := t.TempDir()
	d1, err := store.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	c1 := clusterOn(t, d1)
	data := make([]byte, 25_000)
	rand.New(rand.NewSource(9)).Read(data)
	for _, key := range []string{"obj-a", "obj-b"} {
		if err := c1.PutObject(key, data); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := c1.TotalBytes()
	d1.Close()

	d2, err := store.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	c2 := clusterOn(t, d2)
	if got := c2.TotalBytes(); got != wantBytes {
		t.Fatalf("after reopen, TotalBytes = %d, want %d", got, wantBytes)
	}
	for _, key := range []string{"obj-a", "obj-b"} {
		got, err := c2.GetObject(key)
		if err != nil {
			t.Fatalf("after reopen, %q: %v", key, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("after reopen, %q: wrong data", key)
		}
	}
	// And a degraded read still works on the reopened tier.
	c2.Store(geo.Frankfurt).SetDown(true)
	if got, err := c2.GetObject("obj-a"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read after reopen: %v", err)
	}
}

// chunkIn returns one chunk index the placement puts in the region.
func chunkIn(c *Cluster, key string, r geo.RegionID) int {
	locs := c.Placement().Locate(key, c.Codec().Total())
	for idx, loc := range locs {
		if loc == r {
			return idx
		}
	}
	return -1
}
