package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/agardist/agar/internal/erasure"
	"github.com/agardist/agar/internal/geo"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	codec, err := erasure.New(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	placement := geo.NewRoundRobin(geo.DefaultRegions(), false)
	return NewCluster(geo.DefaultRegions(), codec, placement)
}

// dropChunk removes one chunk straight from the store's blob adapter, the
// way a lost disk loses it, and reports whether it was present.
func dropChunk(s *Store, id ChunkID) bool {
	ok, _ := s.blob.DeleteChunk(context.Background(), s.bucket, id.blobID())
	return ok
}

// getVer reads one chunk with its write version (zero for keys outside
// the versioned path) through the batched versioned read.
func getVer(s *Store, id ChunkID) ([]byte, uint64, error) {
	found, vers, _, err := s.GetMultiVer(id.Key, []int{id.Index})
	if err != nil {
		return nil, 0, err
	}
	data, ok := found[id.Index]
	if !ok {
		return nil, 0, ErrNotFound
	}
	return data, vers[id.Index], nil
}

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore(geo.Tokyo)
	if s.Region() != geo.Tokyo {
		t.Fatal("region wrong")
	}
	id := ChunkID{Key: "k", Index: 2}
	if _, err := s.Get(id); err != ErrNotFound {
		t.Fatalf("err = %v", err)
	}
	data := []byte("chunk")
	if err := s.Put(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("got %q err %v", got, err)
	}
	// Mutating caller or returned slices must not affect the store.
	data[0] = 'X'
	got[1] = 'Y'
	fresh, _ := s.Get(id)
	if !bytes.Equal(fresh, []byte("chunk")) {
		t.Fatal("store shares storage with callers")
	}
	if !dropChunk(s, id) || dropChunk(s, id) {
		t.Fatal("delete semantics wrong")
	}
}

func TestStoreAccounting(t *testing.T) {
	s := NewStore(geo.Dublin)
	s.Put(ChunkID{Key: "a", Index: 0}, make([]byte, 10))
	s.Put(ChunkID{Key: "a", Index: 1}, make([]byte, 20))
	s.Put(ChunkID{Key: "b", Index: 0}, make([]byte, 5))
	if s.Len() != 3 || s.Bytes() != 35 {
		t.Fatalf("len=%d bytes=%d", s.Len(), s.Bytes())
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestStoreFailureInjection(t *testing.T) {
	s := NewStore(geo.Sydney)
	id := ChunkID{Key: "k", Index: 0}
	s.Put(id, []byte("x"))
	s.SetDown(true)
	if !s.Down() {
		t.Fatal("Down not reported")
	}
	if _, err := s.Get(id); !errors.Is(err, ErrDown) {
		t.Fatalf("Get while down: %v", err)
	}
	if err := s.Put(id, []byte("y")); !errors.Is(err, ErrDown) {
		t.Fatalf("Put while down: %v", err)
	}
	s.SetDown(false)
	if _, err := s.Get(id); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
}

func TestClusterPutGetObject(t *testing.T) {
	c := newTestCluster(t)
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := c.PutObject("obj-1", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetObject("obj-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("object round trip failed")
	}
}

func TestClusterPlacementSpreadsChunks(t *testing.T) {
	c := newTestCluster(t)
	if err := c.PutObject("obj-1", make([]byte, 9000)); err != nil {
		t.Fatal(err)
	}
	// Round-robin over 6 regions: every region holds exactly 2 chunks.
	for _, r := range geo.DefaultRegions() {
		if n := c.Store(r).Len(); n != 2 {
			t.Fatalf("region %v holds %d chunks, want 2", r, n)
		}
	}
}

func TestClusterGetChunk(t *testing.T) {
	c := newTestCluster(t)
	data := make([]byte, 5000)
	rand.New(rand.NewSource(2)).Read(data)
	c.PutObject("obj", data)
	chunk, err := c.GetChunk("obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) == 0 {
		t.Fatal("empty chunk")
	}
	if _, err := c.GetChunk("obj", 99); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := c.GetChunk("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestClusterDegradedRead(t *testing.T) {
	c := newTestCluster(t)
	data := make([]byte, 30_000)
	rand.New(rand.NewSource(3)).Read(data)
	c.PutObject("obj", data)

	// Any single region down (2 chunks lost): still decodable (m=3).
	for _, r := range geo.DefaultRegions() {
		c.Store(r).SetDown(true)
		got, err := c.GetObject("obj")
		if err != nil {
			t.Fatalf("region %v down: %v", r, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("region %v down: wrong data", r)
		}
		c.Store(r).SetDown(false)
	}

	// Two regions down (4 chunks lost > m=3): must fail.
	c.Store(geo.Tokyo).SetDown(true)
	c.Store(geo.Sydney).SetDown(true)
	if _, err := c.GetObject("obj"); err == nil {
		t.Fatal("read should fail with 4 chunks unavailable")
	}
}

func TestClusterTotalBytesRedundancyOverhead(t *testing.T) {
	// The paper: 300 x 1 MB objects under RS(9,3) occupy ~400 MB total.
	// Verify the 4/3 overhead ratio on a scaled-down working set.
	c := newTestCluster(t)
	objSize := 9 * 1024
	n := 30
	for i := 0; i < n; i++ {
		if err := c.PutObject(geoKey(i), make([]byte, objSize)); err != nil {
			t.Fatal(err)
		}
	}
	total := c.TotalBytes()
	raw := int64(n * objSize)
	ratio := float64(total) / float64(raw)
	if ratio < 4.0/3.0 || ratio > 4.0/3.0*1.05 {
		t.Fatalf("storage overhead ratio %.3f, want ~1.333", ratio)
	}
}

func TestClusterConcurrentReaders(t *testing.T) {
	c := newTestCluster(t)
	data := make([]byte, 20_000)
	rand.New(rand.NewSource(4)).Read(data)
	c.PutObject("obj", data)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := c.GetObject("obj")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- errors.New("data mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func geoKey(i int) string { return fmt.Sprintf("obj-%03d", i) }
