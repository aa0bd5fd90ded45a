package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"testing"
)

// streamOf returns the first n operations of a workload's stream, drawn in
// the given batches (nil: one batch).
func streamOf(w workload, seed uint64, n int, batches []int) []op {
	s := newOpStream(w, seed)
	if w.RotateBy > 0 {
		s.rotateAt = n / 2
	}
	if batches == nil {
		return s.next(n)
	}
	var ops []op
	for _, b := range batches {
		ops = append(ops, s.next(b)...)
	}
	return ops
}

// streamHash digests what makes an op stream: kind, key, due offset and
// payload sequence of every operation.
func streamHash(ops []op) string {
	h := sha256.New()
	var buf [25]byte
	for _, o := range ops {
		buf[0] = byte(o.Kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(o.Key))
		binary.LittleEndian.PutUint64(buf[9:], uint64(o.Due))
		binary.LittleEndian.PutUint64(buf[17:], o.Seq)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seedOneHashes pins seed 1's first 10 000 operations of every workload: an
// edit that changes them changes what every later commit is measured on.
var seedOneHashes = map[string]string{
	"read-large":  "bb897c356078a7d5c450e9c8a7f7ad54d4b7c22eda8cd826d414fdb655213a9e",
	"read-small":  "ae4e251e1d0bad62f6301bf757002c8f499ad642ff79ec93ac85b2117b7b1409",
	"write-heavy": "1d704a2a254cc2cd297939699ec21d5410c6e80a948f5307031dcf1c986a23f2",
	"wan-mixed":   "f70e30b6876c61b41880037f59b73661fe4c44cd08dafdd466784a9703eb7f35",
}

func TestOpStreamDeterministic(t *testing.T) {
	const n = 10000
	for _, w := range workloads {
		ops := streamOf(w, 1, n, nil)
		h1 := streamHash(ops)
		if again := streamHash(streamOf(w, 1, n, nil)); again != h1 {
			t.Errorf("%s: same seed, different stream", w.Name)
		}
		if other := streamHash(streamOf(w, 2, n, nil)); other == h1 {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.Name)
		}
		if want := seedOneHashes[w.Name]; h1 != want {
			t.Errorf("%s: seed 1 stream hash %s, pinned %s", w.Name, h1, want)
		}
		// How the phases cut the stream up moves only the due offsets, which
		// restart with every phase.
		cut := streamOf(w, 1, n, []int{1, 999, 4000, 5000})
		for i := range ops {
			a, b := ops[i], cut[i]
			if a.ID != b.ID || a.Kind != b.Kind || a.Key != b.Key || a.Seq != b.Seq {
				t.Fatalf("%s: op %d differs when drawn in batches: %+v vs %+v", w.Name, i, a, b)
			}
		}
	}
}

func TestDueOffsetsFollowTheRate(t *testing.T) {
	w, _ := workloadByName("read-small")
	ops := newOpStream(w, 1).next(int(w.Rate) + 1)
	if ops[0].Due != 0 || ops[len(ops)-1].Due.Seconds() != 1 {
		t.Fatalf("first due %v, op %d due %v; want 0 and 1s", ops[0].Due, len(ops)-1, ops[len(ops)-1].Due)
	}
}

func TestWriteSequencesAscendPerKey(t *testing.T) {
	w, _ := workloadByName("write-heavy")
	last := map[int]uint64{}
	for _, o := range newOpStream(w, 1).next(5000) {
		if o.Kind != opWrite {
			continue
		}
		if o.Seq != last[o.Key]+1 {
			t.Fatalf("op %d: key %d sequence %d after %d", o.ID, o.Key, o.Seq, last[o.Key])
		}
		last[o.Key] = o.Seq
	}
	if len(last) == 0 {
		t.Fatal("no writes generated")
	}
}

func TestSchedulerKeepsAKeyOnOneLaneInOrder(t *testing.T) {
	w, _ := workloadByName("write-heavy")
	g := &rig{w: w, owner: balancedOwners(keyPerm(w.Objects, 1), newZipf(w.Objects, w.Zipf), 3)}
	ops := newOpStream(w, 1).next(2000)
	s := &scheduler{ops: ops, pinned: make([][]int, 3), owned: true}
	lastID := map[int]int{}
	laneOf := map[int]int{}
	claimed := 0
	for progress := true; progress; {
		progress = false
		for li := range s.pinned {
			i, ok := s.claim(g, li)
			if !ok {
				continue
			}
			progress = true
			claimed++
			o := ops[i]
			if prev, seen := laneOf[o.Key]; seen && prev != li {
				t.Fatalf("key %d ran on lanes %d and %d", o.Key, prev, li)
			}
			laneOf[o.Key] = li
			if prev, seen := lastID[o.Key]; seen && prev > o.ID {
				t.Fatalf("key %d: op %d handed out after op %d", o.Key, o.ID, prev)
			}
			lastID[o.Key] = o.ID
		}
	}
	if claimed != len(ops) {
		t.Fatalf("claimed %d of %d operations", claimed, len(ops))
	}
}

// TestSchedulerConcurrentClaims hands a stream out to lanes claiming at the
// same time, as runPhase does: every operation must be handed out exactly
// once, on its key's lane. Run with -race it also covers the one structure
// the lanes share.
func TestSchedulerConcurrentClaims(t *testing.T) {
	w, _ := workloadByName("write-heavy")
	const lanes = 4
	g := &rig{w: w, owner: balancedOwners(keyPerm(w.Objects, 1), newZipf(w.Objects, w.Zipf), lanes)}
	ops := newOpStream(w, 1).next(20000)
	var hookWG sync.WaitGroup
	hooked := atomic.Int32{}
	s := &scheduler{ops: ops, pinned: make([][]int, lanes), owned: true, wg: &hookWG,
		hooks: []hook{{At: 100, Fn: func() { hooked.Add(1) }}, {At: 15000, Fn: func() { hooked.Add(1) }}}}
	seen := make([]atomic.Int32, len(ops))
	var wg sync.WaitGroup
	for li := 0; li < lanes; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			for {
				i, ok := s.claim(g, li)
				if !ok {
					return
				}
				seen[i].Add(1)
				if g.owner[ops[i].Key] != li {
					t.Errorf("op %d of key %d handed to lane %d, owner is %d", i, ops[i].Key, li, g.owner[ops[i].Key])
				}
			}
		}(li)
	}
	wg.Wait()
	hookWG.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("op %d handed out %d times", i, n)
		}
	}
	if hooked.Load() != 2 {
		t.Fatalf("%d of 2 hooks ran", hooked.Load())
	}
}
