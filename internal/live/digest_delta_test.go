package live

import (
	"reflect"
	"testing"

	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/geo"
)

// TestDigestDeltasFlowBetweenPeeredClusters pushes digests twice across a
// live mesh: the second push must travel as a delta (visible in the peer's
// digest_deltas counter), and an eviction between pushes must disappear
// from the peer's mirror through the delta's removal entry.
func TestDigestDeltasFlowBetweenPeeredClusters(t *testing.T) {
	fra, dub, _ := startPeeredClusters(t, 4, 8_000)

	warmCluster(t, dub, geo.Dublin, "object-0")
	if failed := dub.PushDigests(); failed != 0 {
		t.Fatalf("first push: %d failed", failed)
	}
	mirror := fra.CoopTable().Mirror(geo.Dublin.String())
	before := dub.Node().Cache().IndicesOf("object-0")
	if got := mirror.IndicesOf("object-0"); !reflect.DeepEqual(got, before) {
		t.Fatalf("mirror %v != residency %v after full digest", got, before)
	}

	// Evict one advertised chunk, then delta-push the change.
	dub.Node().Cache().Delete(cache.EntryID{Key: "object-0", Index: before[0]})
	if failed := dub.PushDigests(); failed != 0 {
		t.Fatalf("second push: %d failed", failed)
	}
	if n := dub.Advertiser().DeltaPushes(); n == 0 {
		t.Fatal("second push did not travel as a delta")
	}
	if mirror.Contains(cache.EntryID{Key: "object-0", Index: before[0]}) {
		t.Fatalf("mirror still advertises evicted chunk %d", before[0])
	}
	if got, want := mirror.IndicesOf("object-0"), dub.Node().Cache().IndicesOf("object-0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("mirror %v != residency %v after delta", got, want)
	}

	// The serving cache server counted the delta frame.
	if n := fra.CoopTable().Deltas(); n == 0 {
		t.Fatal("peer cache server reports no digest deltas")
	}

	// A third, no-change push still lands (age refresh) as a delta.
	if failed := dub.PushDigests(); failed != 0 {
		t.Fatalf("idle push: %d failed", failed)
	}
	if n := dub.Advertiser().DeltaPushes(); n < 2 {
		t.Fatalf("idle push not a delta (delta pushes = %d)", n)
	}
}
