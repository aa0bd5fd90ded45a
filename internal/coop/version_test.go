package coop

import (
	"reflect"
	"testing"
)

// versionedSource is a scripted VersionedSnapshotter.
type versionedSource struct {
	groups map[string][]int
	vers   map[string]uint64
}

func (s *versionedSource) Snapshot() map[string][]int { return s.groups }
func (s *versionedSource) SnapshotVer() (map[string][]int, map[string]uint64) {
	return s.groups, s.vers
}

func TestDiffVerVersionOnlyChange(t *testing.T) {
	prev := map[string][]int{"obj": {0, 1}}
	cur := map[string][]int{"obj": {0, 1}}

	// Same indices, same version: no change.
	changed, vers := DiffVer(prev, cur, map[string]uint64{"obj": 100}, map[string]uint64{"obj": 100})
	if len(changed) != 0 || vers != nil {
		t.Fatalf("no-op diff reported %v / %v", changed, vers)
	}

	// Same indices, newer version: the invalidate-then-repopulate case a
	// residency-only diff would miss.
	changed, vers = DiffVer(prev, cur, map[string]uint64{"obj": 100}, map[string]uint64{"obj": 200})
	if !reflect.DeepEqual(changed["obj"], []int{0, 1}) || vers["obj"] != 200 {
		t.Fatalf("version bump missed: %v / %v", changed, vers)
	}
}

func TestPaginateVerAttachesPageLocalVersions(t *testing.T) {
	snap := make(map[string][]int)
	vers := make(map[string]uint64)
	for i := 0; i < MaxDigestKeys+5; i++ {
		key := keyN(i)
		snap[key] = []int{0}
		if i%2 == 0 {
			vers[key] = uint64(i + 1)
		}
	}
	frames := PaginateVer("tokyo", 7, snap, vers)
	if len(frames) != 2 {
		t.Fatalf("%d frames", len(frames))
	}
	seen := 0
	for _, f := range frames {
		for key, v := range f.KeyVers {
			if _, ok := f.Groups[key]; !ok {
				t.Fatalf("frame carries version for foreign key %q", key)
			}
			if vers[key] != v {
				t.Fatalf("key %q advertised %d, want %d", key, v, vers[key])
			}
			seen++
		}
	}
	if seen != len(vers) {
		t.Fatalf("%d versions advertised, want %d", seen, len(vers))
	}
}

// TestAdvertiserVersionDelta drives an advertiser over a versioned source:
// a version-only change must still travel as a delta carrying the new
// version, so the receiver's floor can follow it.
func TestAdvertiserVersionDelta(t *testing.T) {
	src := &versionedSource{
		groups: map[string][]int{"obj": {0, 1}},
		vers:   map[string]uint64{"obj": 100},
	}
	var sent []Digest
	adv := NewAdvertiser("tokyo", src, 0)
	adv.AddTarget("dublin", targetFunc(func(d Digest) error {
		sent = append(sent, d)
		return nil
	}))

	if adv.Advertise() != 0 {
		t.Fatal("first advertise failed")
	}
	if len(sent) != 1 || sent[0].Delta || sent[0].KeyVers["obj"] != 100 {
		t.Fatalf("first push = %+v, want a full digest advertising obj@100", sent)
	}

	// Bump only the version — residency unchanged.
	src.vers = map[string]uint64{"obj": 250}
	if adv.Advertise() != 0 {
		t.Fatal("second advertise failed")
	}
	if adv.DeltaPushes() != 1 {
		t.Fatalf("version bump did not travel as a delta (deltas=%d)", adv.DeltaPushes())
	}
	last := sent[len(sent)-1]
	if !last.Delta || last.KeyVers["obj"] != 250 || !reflect.DeepEqual(last.Groups["obj"], []int{0, 1}) {
		t.Fatalf("delta = %+v, want obj [0 1] at 250", last)
	}
}

// targetFunc adapts a function to the Target interface.
type targetFunc func(Digest) error

func (f targetFunc) SendDigest(d Digest) error { return f(d) }

func keyN(i int) string {
	// Fixed-width keys keep pagination order deterministic.
	const digits = "0123456789"
	return "key-" + string([]byte{digits[i/100%10], digits[i/10%10], digits[i%10]})
}
