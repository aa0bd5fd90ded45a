package coop

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/agardist/agar/internal/cache"
)

func TestMirrorApplyReplaceMergeStale(t *testing.T) {
	m := NewMirror("dublin")
	if _, ok := m.Age(); ok {
		t.Fatal("fresh mirror reports an age")
	}
	if !m.Apply(1, map[string][]int{"a": {0, 2}}) {
		t.Fatal("first digest rejected")
	}
	if got := m.IndicesOf("a"); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("IndicesOf = %v", got)
	}
	if !m.Contains(cache.EntryID{Key: "a", Index: 2}) || m.Contains(cache.EntryID{Key: "a", Index: 1}) {
		t.Fatal("Contains wrong")
	}

	// Same seq merges (pagination).
	if !m.Apply(1, map[string][]int{"b": {5}}) {
		t.Fatal("same-seq page rejected")
	}
	if m.Keys() != 2 {
		t.Fatalf("keys = %d after merge", m.Keys())
	}

	// Higher seq replaces wholesale.
	if !m.Apply(2, map[string][]int{"c": {1}}) {
		t.Fatal("newer digest rejected")
	}
	if m.Contains(cache.EntryID{Key: "a", Index: 0}) {
		t.Fatal("stale residency survived a replace")
	}
	if got := m.IndicesOf("c"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("IndicesOf after replace = %v", got)
	}

	// Lower seq is stale.
	if m.Apply(1, map[string][]int{"z": {9}}) {
		t.Fatal("stale digest applied")
	}
	if m.Seq() != 2 {
		t.Fatalf("seq = %d", m.Seq())
	}

	// An empty newer digest clears the view.
	if !m.Apply(3, map[string][]int{}) {
		t.Fatal("empty digest rejected")
	}
	if m.Keys() != 0 {
		t.Fatal("empty digest did not clear the mirror")
	}
	if _, ok := m.Age(); !ok {
		t.Fatal("mirror with applied digests reports no age")
	}
}

func TestMirrorAgeUsesClock(t *testing.T) {
	m := NewMirror("tokyo")
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	m.Apply(1, map[string][]int{"k": {0}})
	now = now.Add(42 * time.Second)
	age, ok := m.Age()
	if !ok || age != 42*time.Second {
		t.Fatalf("age = %v ok=%v", age, ok)
	}
}

func TestPaginateSplitsDeterministically(t *testing.T) {
	snap := make(map[string][]int)
	for i := 0; i < MaxDigestKeys*2+5; i++ {
		snap[fmt.Sprintf("key-%04d", i)] = []int{i % 7}
	}
	frames := PaginateVer("fra", 9, snap, nil)
	if len(frames) != 3 {
		t.Fatalf("frames = %d", len(frames))
	}
	total := 0
	for _, f := range frames {
		if f.Region != "fra" || f.Seq != 9 {
			t.Fatalf("frame metadata %+v", f)
		}
		if len(f.Groups) > MaxDigestKeys {
			t.Fatalf("frame carries %d keys", len(f.Groups))
		}
		total += len(f.Groups)
	}
	if total != len(snap) {
		t.Fatalf("keys lost: %d of %d", total, len(snap))
	}
	// Applying all frames at one seq reconstructs the snapshot.
	m := NewMirror("fra")
	for _, f := range frames {
		if !m.Apply(f.Seq, f.Groups) {
			t.Fatal("page rejected")
		}
	}
	if m.Keys() != len(snap) {
		t.Fatalf("mirror keys = %d", m.Keys())
	}

	empty := PaginateVer("fra", 10, nil, nil)
	if len(empty) != 1 || len(empty[0].Groups) != 0 {
		t.Fatalf("empty snapshot frames = %+v", empty)
	}
}

func TestTableRoutesAndCounts(t *testing.T) {
	tab := NewTable()
	if !tab.Apply(Digest{Region: "dublin", Seq: 1, Groups: map[string][]int{"a": {0}}}) {
		t.Fatal("digest rejected")
	}
	if tab.Apply(Digest{Region: "dublin", Seq: 0, Groups: nil}) {
		t.Fatal("stale digest applied")
	}
	tab.Apply(Digest{Region: "tokyo", Seq: 5, Groups: map[string][]int{"b": {1}}})
	if got := tab.Regions(); !reflect.DeepEqual(got, []string{"dublin", "tokyo"}) {
		t.Fatalf("regions = %v", got)
	}
	if !tab.Mirror("dublin").Contains(cache.EntryID{Key: "a", Index: 0}) {
		t.Fatal("dublin mirror missing residency")
	}
	applied, stale := tab.Applied()
	if applied != 2 || stale != 1 {
		t.Fatalf("applied=%d stale=%d", applied, stale)
	}
	tab.RecordPeerRead(3, 1)
	tab.RecordPeerRead(2, 0)
	hits, misses := tab.PeerReads()
	if hits != 5 || misses != 1 {
		t.Fatalf("peer reads %d/%d", hits, misses)
	}
	if _, ok := tab.StalestAge(); !ok {
		t.Fatal("no stalest age after digests")
	}
	if _, ok := NewTable().StalestAge(); ok {
		t.Fatal("empty table reports an age")
	}
}

// fakeTarget records digests and can be told to fail.
type fakeTarget struct {
	mu     sync.Mutex
	frames []Digest
	fail   bool
}

func (f *fakeTarget) SendDigest(d Digest) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("link down")
	}
	f.frames = append(f.frames, d)
	return nil
}

type fakeSource map[string][]int

func (s fakeSource) Snapshot() map[string][]int { return s }

func TestAdvertiserPushesSnapshots(t *testing.T) {
	src := fakeSource{"obj-1": {0, 3}, "obj-2": {7}}
	adv := NewAdvertiser("frankfurt", src, time.Hour)
	good, bad := &fakeTarget{}, &fakeTarget{fail: true}
	adv.AddTarget("dublin", good)
	adv.AddTarget("tokyo", bad)

	if failed := adv.Advertise(); failed != 1 {
		t.Fatalf("failed = %d", failed)
	}
	good.mu.Lock()
	if len(good.frames) != 1 || good.frames[0].Region != "frankfurt" || good.frames[0].Seq <= 0 {
		t.Fatalf("frames = %+v", good.frames)
	}
	if !reflect.DeepEqual(good.frames[0].Groups["obj-1"], []int{0, 3}) {
		t.Fatalf("groups = %v", good.frames[0].Groups)
	}
	good.mu.Unlock()

	// The next round bumps the sequence so receivers replace, not merge.
	adv.Advertise()
	good.mu.Lock()
	if good.frames[1].Seq != good.frames[0].Seq+1 {
		t.Fatalf("second seq = %d after %d", good.frames[1].Seq, good.frames[0].Seq)
	}
	good.mu.Unlock()

	pushes, failures := adv.Stats()
	if pushes != 2 || failures != 2 {
		t.Fatalf("pushes=%d failures=%d", pushes, failures)
	}
}

// TestAdvertiserRestartOutranksPredecessor: a restarted advertiser's
// digests must replace the mirrors its previous incarnation built, not be
// dropped as stale — the wall-clock seq seed guarantees it.
func TestAdvertiserRestartOutranksPredecessor(t *testing.T) {
	tab := NewTable()
	target := tableTarget{tab}

	first := NewAdvertiser("frankfurt", fakeSource{"old-obj": {0, 1}}, time.Hour)
	first.AddTarget("dublin", target)
	first.Advertise()
	if tab.Mirror("frankfurt").Keys() != 1 {
		t.Fatal("first incarnation's digest not applied")
	}

	time.Sleep(time.Millisecond) // a restart is never instantaneous
	second := NewAdvertiser("frankfurt", fakeSource{"new-obj": {4}}, time.Hour)
	second.AddTarget("dublin", target)
	second.Advertise()

	m := tab.Mirror("frankfurt")
	if len(m.IndicesOf("old-obj")) != 0 {
		t.Fatal("restarted advertiser did not replace its predecessor's view")
	}
	if got := m.IndicesOf("new-obj"); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("post-restart residency = %v", got)
	}
}

// tableTarget applies digests straight into a table, like a local cache
// server would.
type tableTarget struct{ tab *Table }

func (t tableTarget) SendDigest(d Digest) error {
	t.tab.Apply(d)
	return nil
}

func TestAdvertiserStartStop(t *testing.T) {
	src := fakeSource{"k": {0}}
	adv := NewAdvertiser("frankfurt", src, time.Millisecond)
	target := &fakeTarget{}
	adv.AddTarget("dublin", target)
	adv.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		target.mu.Lock()
		n := len(target.frames)
		target.mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("advertiser never pushed")
		}
		time.Sleep(time.Millisecond)
	}
	adv.Stop()
	adv.Stop() // idempotent
}
