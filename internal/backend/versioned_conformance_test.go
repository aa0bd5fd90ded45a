package backend

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/hlc"
	"github.com/agardist/agar/internal/store"
)

// The versioned write-path conformance suite. Every store.BlobStore
// adapter must give the versioned Store API the same semantics:
// write-through durability of chunks AND version records, last-writer-wins
// monotonicity, and invalidation floors that survive a reopen (for the
// disk adapter, a crash rescan of the directory layout).
//
// Each adapter fixture returns the store under test plus a reopen function
// that simulates a process restart: a fresh *Store (with a cold version
// cache) over the durable state the previous instance left behind.

type versionedFixture struct {
	name string
	open func(t *testing.T) (*Store, func() *Store)
}

func versionedFixtures() []versionedFixture {
	return []versionedFixture{
		{name: "mem", open: func(t *testing.T) (*Store, func() *Store) {
			mem := store.NewMem()
			return NewStoreOn(geo.Frankfurt, mem), func() *Store {
				return NewStoreOn(geo.Frankfurt, mem)
			}
		}},
		{name: "disk", open: func(t *testing.T) (*Store, func() *Store) {
			dir := t.TempDir()
			disk, err := store.NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			return NewStoreOn(geo.Frankfurt, disk), func() *Store {
				// A crash rescan: a brand-new Disk over the same root must
				// recover every chunk and version record from the layout.
				reopened, err := store.NewDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				return NewStoreOn(geo.Frankfurt, reopened)
			}
		}},
		{name: "remote", open: func(t *testing.T) (*Store, func() *Store) {
			disk, err := store.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(store.NewGateway(disk))
			t.Cleanup(srv.Close)
			remote := store.NewRemote(srv.URL)
			t.Cleanup(func() { remote.Close() })
			return NewStoreOn(geo.Frankfurt, remote), func() *Store {
				fresh := store.NewRemote(srv.URL)
				t.Cleanup(func() { fresh.Close() })
				return NewStoreOn(geo.Frankfurt, fresh)
			}
		}},
	}
}

func TestVersionedWriteThroughDurability(t *testing.T) {
	for _, fx := range versionedFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, reopen := fx.open(t)
			v1 := uint64(hlc.Pack(1000, 1))
			chunks := map[int][]byte{
				0: []byte("alpha-chunk"),
				1: []byte("beta-chunk"),
			}
			if err := s.PutMultiVer("obj", chunks, v1); err != nil {
				t.Fatal(err)
			}

			// The same instance reads its own write.
			got, vers, floor, err := s.GetMultiVer("obj", []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			if floor != v1 || vers[0] != v1 || vers[1] != v1 {
				t.Fatalf("floor=%d vers=%v, want all %d", floor, vers, v1)
			}
			if !bytes.Equal(got[0], chunks[0]) || !bytes.Equal(got[1], chunks[1]) {
				t.Fatalf("payload mangled: %q %q", got[0], got[1])
			}

			// A fresh instance (restart / crash rescan) sees the same state.
			s2 := reopen()
			if ver, err := s2.VersionOf("obj"); err != nil || ver != v1 {
				t.Fatalf("reopened VersionOf = %d, %v", ver, err)
			}
			data, ver, err := getVer(s2, ChunkID{Key: "obj", Index: 1})
			if err != nil || ver != v1 || !bytes.Equal(data, chunks[1]) {
				t.Fatalf("reopened GetVer = %q v%d, %v", data, ver, err)
			}

			// Unversioned keys stay on the raw path: no record, no framing.
			if err := s.Put(ChunkID{Key: "legacy", Index: 0}, []byte("raw-bytes")); err != nil {
				t.Fatal(err)
			}
			data, ver, err = getVer(s, ChunkID{Key: "legacy", Index: 0})
			if err != nil || ver != 0 || !bytes.Equal(data, []byte("raw-bytes")) {
				t.Fatalf("legacy GetVer = %q v%d, %v", data, ver, err)
			}
		})
	}
}

func TestVersionedMonotonicity(t *testing.T) {
	for _, fx := range versionedFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, reopen := fx.open(t)
			v2 := uint64(hlc.Pack(2000, 0))
			if err := s.PutVer(ChunkID{Key: "obj", Index: 0}, []byte("new"), v2); err != nil {
				t.Fatal(err)
			}

			// An older write loses, with the winning version in the error.
			v1 := uint64(hlc.Pack(1000, 0))
			err := s.PutVer(ChunkID{Key: "obj", Index: 0}, []byte("old"), v1)
			if !errors.Is(err, ErrStale) {
				t.Fatalf("stale put: %v", err)
			}
			var stale *StaleError
			if !errors.As(err, &stale) || stale.Cur != v2 {
				t.Fatalf("stale detail: %#v", err)
			}
			if err := s.PutMultiVer("obj", map[int][]byte{1: []byte("old")}, v1); !errors.Is(err, ErrStale) {
				t.Fatalf("stale multi-put: %v", err)
			}

			// Equal and newer versions are admitted (same-write retries and
			// later writes respectively).
			if err := s.PutVer(ChunkID{Key: "obj", Index: 0}, []byte("retry"), v2); err != nil {
				t.Fatal(err)
			}
			v3 := uint64(hlc.Pack(3000, 0))
			if err := s.PutVer(ChunkID{Key: "obj", Index: 0}, []byte("newest"), v3); err != nil {
				t.Fatal(err)
			}

			// The floor survives a restart: the stale write still loses
			// against a cold cache.
			s2 := reopen()
			if err := s2.PutVer(ChunkID{Key: "obj", Index: 0}, []byte("old"), v1); !errors.Is(err, ErrStale) {
				t.Fatalf("stale put after reopen: %v", err)
			}
			data, ver, err := getVer(s2, ChunkID{Key: "obj", Index: 0})
			if err != nil || ver != v3 || !bytes.Equal(data, []byte("newest")) {
				t.Fatalf("after reopen: %q v%d, %v", data, ver, err)
			}
		})
	}
}
