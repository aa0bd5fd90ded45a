package coop

import (
	"reflect"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
)

func TestDiff(t *testing.T) {
	prev := map[string][]int{"a": {0, 1}, "b": {2}, "c": {3}}
	cur := map[string][]int{"a": {1, 0}, "b": {2, 4}, "d": {5}}
	got, _ := DiffVer(prev, cur, nil, nil)
	want := map[string][]int{
		"b": {2, 4}, // changed
		"d": {5},    // added
		"c": {},     // removed
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	if d, _ := DiffVer(cur, cur, nil, nil); len(d) != 0 {
		t.Fatalf("self-diff = %v", d)
	}
}

func TestMirrorApplyDelta(t *testing.T) {
	m := NewMirror("dublin")

	// A delta against a virgin mirror is rejected: nothing to delta from.
	if m.ApplyDelta(2, 1, map[string][]int{"a": {0}}) {
		t.Fatal("delta applied to empty mirror")
	}

	if !m.Apply(10, map[string][]int{"a": {0, 1}, "b": {2}}) {
		t.Fatal("full digest rejected")
	}
	// Delta at the right base: change a, remove b, add c.
	if !m.ApplyDelta(11, 10, map[string][]int{"a": {1}, "b": {}, "c": {7}}) {
		t.Fatal("aligned delta rejected")
	}
	if got := m.IndicesOf("a"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("a = %v", got)
	}
	if m.Contains(cache.EntryID{Key: "b", Index: 2}) {
		t.Fatal("removed key still resident")
	}
	if got := m.IndicesOf("c"); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("c = %v", got)
	}
	if m.Seq() != 11 {
		t.Fatalf("seq = %d", m.Seq())
	}

	// A later page of the same delta snapshot merges.
	if !m.ApplyDelta(11, 10, map[string][]int{"d": {9}}) {
		t.Fatal("same-seq delta page rejected")
	}
	if got := m.IndicesOf("d"); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("d = %v", got)
	}

	// Base mismatch (mirror at 11, delta over 10) is rejected outright.
	if m.ApplyDelta(12, 10, map[string][]int{"a": {}}) {
		t.Fatal("misaligned delta applied")
	}
	if got := m.IndicesOf("a"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("rejected delta mutated the mirror: a = %v", got)
	}
	// A same-seq page with no groups is fine; a stale delta is not.
	if !m.ApplyDelta(11, 10, nil) {
		t.Fatal("same-seq empty page rejected")
	}
	if m.ApplyDelta(9, 8, map[string][]int{"z": {1}}) {
		t.Fatal("stale delta applied")
	}
}

func TestPaginateDeltaEmptyStillAdvances(t *testing.T) {
	frames := PaginateDeltaVer("fra", 5, 4, nil, nil)
	if len(frames) != 1 || !frames[0].Delta || frames[0].Base != 4 || frames[0].Seq != 5 {
		t.Fatalf("frames = %+v", frames)
	}
	m := NewMirror("fra")
	m.Apply(4, map[string][]int{"a": {0}})
	if !m.ApplyDelta(frames[0].Seq, frames[0].Base, frames[0].Groups) {
		t.Fatal("empty delta rejected")
	}
	if m.Seq() != 5 {
		t.Fatalf("seq = %d", m.Seq())
	}
	if got := m.IndicesOf("a"); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("empty delta changed residency: %v", got)
	}
}

// seqTarget records every frame it receives and can be told to fail.
type seqTarget struct {
	frames []Digest
	fail   bool
	mirror *Mirror
}

func (s *seqTarget) SendDigest(d Digest) error {
	if s.fail {
		return errFail
	}
	s.frames = append(s.frames, d)
	if s.mirror != nil {
		if d.Delta {
			if !s.mirror.ApplyDelta(d.Seq, d.Base, d.Groups) {
				return errFail
			}
		} else if !s.mirror.Apply(d.Seq, d.Groups) {
			return errFail
		}
	}
	return nil
}

var errFail = &timeoutErr{}

type timeoutErr struct{}

func (*timeoutErr) Error() string { return "injected target failure" }

// snapSource is a mutable Snapshotter.
type snapSource struct{ snap map[string][]int }

func (s *snapSource) Snapshot() map[string][]int {
	out := make(map[string][]int, len(s.snap))
	for k, v := range s.snap {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// TestAdvertiserSendsDeltasWhenPeerIsCurrent drives three advertises: the
// first is full, the second and third are deltas carrying only the
// changes, and the peer's mirror tracks the source exactly throughout.
func TestAdvertiserSendsDeltasWhenPeerIsCurrent(t *testing.T) {
	src := &snapSource{snap: map[string][]int{"a": {0, 1}, "b": {2}}}
	a := NewAdvertiser("fra", src, time.Second)
	tgt := &seqTarget{mirror: NewMirror("fra")}
	a.AddTarget("dub", tgt)

	if failed := a.Advertise(); failed != 0 {
		t.Fatalf("push 1: %d failed", failed)
	}
	if len(tgt.frames) != 1 || tgt.frames[0].Delta {
		t.Fatalf("first push frames = %+v", tgt.frames)
	}

	src.snap["b"] = []int{2, 3}
	delete(src.snap, "a")
	src.snap["c"] = []int{9}
	if failed := a.Advertise(); failed != 0 {
		t.Fatalf("push 2: %d failed", failed)
	}
	second := tgt.frames[1]
	if !second.Delta {
		t.Fatalf("second push not a delta: %+v", second)
	}
	want := map[string][]int{"a": {}, "b": {2, 3}, "c": {9}}
	if !reflect.DeepEqual(second.Groups, want) {
		t.Fatalf("delta groups = %v, want %v", second.Groups, want)
	}
	if got := tgt.mirror.IndicesOf("b"); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("mirror b = %v", got)
	}
	if tgt.mirror.Contains(cache.EntryID{Key: "a", Index: 0}) {
		t.Fatal("mirror still advertises removed key")
	}

	// No changes: the delta is empty but still pushes (age refresh).
	if failed := a.Advertise(); failed != 0 {
		t.Fatalf("push 3: %d failed", failed)
	}
	third := tgt.frames[2]
	if !third.Delta || len(third.Groups) != 0 {
		t.Fatalf("idle delta = %+v", third)
	}
	if a.DeltaPushes() != 2 {
		t.Fatalf("delta pushes = %d", a.DeltaPushes())
	}
}

// TestAdvertiserFallsBackToFullAfterMiss fails one push: the peer's ack
// state resets, so the next successful push must be a full digest.
func TestAdvertiserFallsBackToFullAfterMiss(t *testing.T) {
	src := &snapSource{snap: map[string][]int{"a": {0}}}
	a := NewAdvertiser("fra", src, time.Second)
	tgt := &seqTarget{mirror: NewMirror("fra")}
	a.AddTarget("dub", tgt)

	a.Advertise() // full
	tgt.fail = true
	if failed := a.Advertise(); failed != 1 {
		t.Fatalf("failed push reported %d", failed)
	}
	tgt.fail = false
	src.snap["b"] = []int{5}
	if failed := a.Advertise(); failed != 0 {
		t.Fatalf("recovery push failed")
	}
	last := tgt.frames[len(tgt.frames)-1]
	if last.Delta {
		t.Fatalf("push after a miss travelled as a delta: %+v", last)
	}
	if got := tgt.mirror.IndicesOf("b"); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("mirror b = %v", got)
	}
	// Once re-acked, deltas resume.
	src.snap["c"] = []int{7}
	a.Advertise()
	if last := tgt.frames[len(tgt.frames)-1]; !last.Delta {
		t.Fatalf("deltas did not resume: %+v", last)
	}
}

// TestAdvertiserNewTargetGetsFullDigest registers a second peer after the
// first push: it must receive the full digest while the current peer gets
// the delta.
func TestAdvertiserNewTargetGetsFullDigest(t *testing.T) {
	src := &snapSource{snap: map[string][]int{"a": {0}}}
	a := NewAdvertiser("fra", src, time.Second)
	old := &seqTarget{mirror: NewMirror("fra")}
	a.AddTarget("dub", old)
	a.Advertise()

	fresh := &seqTarget{mirror: NewMirror("fra")}
	a.AddTarget("vir", fresh)
	src.snap["b"] = []int{1}
	if failed := a.Advertise(); failed != 0 {
		t.Fatalf("mixed push failed")
	}
	if last := old.frames[len(old.frames)-1]; !last.Delta {
		t.Fatalf("current peer got a full digest: %+v", last)
	}
	if last := fresh.frames[len(fresh.frames)-1]; last.Delta {
		t.Fatalf("fresh peer got a delta: %+v", last)
	}
	for _, m := range []*Mirror{old.mirror, fresh.mirror} {
		if got := m.IndicesOf("b"); !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("mirror b = %v", got)
		}
	}
}
