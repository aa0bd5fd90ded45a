package geo

import (
	"testing"
	"time"
)

func TestRegionNames(t *testing.T) {
	cases := map[RegionID]string{
		Frankfurt: "frankfurt",
		Dublin:    "dublin",
		NVirginia: "n-virginia",
		SaoPaulo:  "sao-paulo",
		Tokyo:     "tokyo",
		Sydney:    "sydney",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
		got, err := ParseRegion(want)
		if err != nil || got != r {
			t.Errorf("ParseRegion(%q) = %v, %v", want, got, err)
		}
	}
	if _, err := ParseRegion("mars"); err == nil {
		t.Error("ParseRegion accepted unknown region")
	}
	if RegionID(42).String() == "" {
		t.Error("out-of-range region must still stringify")
	}
}

func TestDefaultRegions(t *testing.T) {
	regions := DefaultRegions()
	if len(regions) != 6 {
		t.Fatalf("got %d regions, want the paper's 6", len(regions))
	}
	for i, r := range regions {
		if int(r) != i {
			t.Fatalf("region ids must be dense: regions[%d] = %d", i, int(r))
		}
	}
}

func TestTableIValues(t *testing.T) {
	tab := TableI()
	want := map[RegionID]time.Duration{
		Frankfurt: 80 * time.Millisecond,
		Dublin:    200 * time.Millisecond,
		NVirginia: 600 * time.Millisecond,
		SaoPaulo:  1400 * time.Millisecond,
		Tokyo:     3400 * time.Millisecond,
		Sydney:    4600 * time.Millisecond,
	}
	for r, d := range want {
		if tab[r] != d {
			t.Errorf("TableI[%v] = %v, want %v", r, tab[r], d)
		}
	}
}

func TestTableIMatrixFrankfurtRow(t *testing.T) {
	m := TableIMatrix()
	for r, d := range TableI() {
		if got := m.Get(Frankfurt, r); got != d {
			t.Errorf("TableIMatrix Frankfurt->%v = %v, want %v", r, got, d)
		}
	}
}

func TestDefaultMatrixProperties(t *testing.T) {
	m := DefaultMatrix()
	if m.Size() != 6 {
		t.Fatalf("matrix size %d", m.Size())
	}
	for _, from := range DefaultRegions() {
		// Local access must be the cheapest entry in every row.
		local := m.Get(from, from)
		for _, to := range DefaultRegions() {
			if to == from {
				continue
			}
			if m.Get(from, to) <= local {
				t.Errorf("%v->%v (%v) not slower than local (%v)", from, to, m.Get(from, to), local)
			}
		}
	}
	// Frankfurt's nearest remote must be Dublin; Sydney's must be Tokyo.
	for from, nearest := range map[RegionID]RegionID{Frankfurt: Dublin, Sydney: Tokyo} {
		for _, to := range DefaultRegions() {
			if to != from && to != nearest && m.Get(from, to) <= m.Get(from, nearest) {
				t.Errorf("%v->%v (%v) not slower than %v->%v", from, to, m.Get(from, to), from, nearest)
			}
		}
	}
}

func TestLatencyMatrixSetGetClone(t *testing.T) {
	m := NewLatencyMatrix(3)
	m.Set(1, 2, 5*time.Millisecond)
	if m.Get(1, 2) != 5*time.Millisecond {
		t.Fatal("Set/Get broken")
	}
	row := m.Row(1)
	row[2] = time.Hour
	if m.Get(1, 2) != 5*time.Millisecond {
		t.Fatal("Row must copy")
	}
}

func TestRoundRobinFixed(t *testing.T) {
	p := NewRoundRobin(DefaultRegions(), false)
	locs := p.Locate("any-key", 12)
	// Fixed mode: chunk i -> region i % 6; every region hosts exactly 2.
	counts := make(map[RegionID]int)
	for i, r := range locs {
		if int(r) != i%6 {
			t.Fatalf("chunk %d placed on %v, want %v", i, r, RegionID(i%6))
		}
		counts[r]++
	}
	for _, r := range DefaultRegions() {
		if counts[r] != 2 {
			t.Fatalf("region %v has %d chunks, want 2", r, counts[r])
		}
	}
	// Same for every key in fixed mode.
	locs2 := p.Locate("another-key", 12)
	for i := range locs {
		if locs[i] != locs2[i] {
			t.Fatal("fixed placement must not depend on key")
		}
	}
}

func TestRoundRobinRotate(t *testing.T) {
	p := NewRoundRobin(DefaultRegions(), true)
	// Balanced per object.
	locs := p.Locate("key-1", 12)
	counts := make(map[RegionID]int)
	for _, r := range locs {
		counts[r]++
	}
	for _, r := range DefaultRegions() {
		if counts[r] != 2 {
			t.Fatalf("rotate: region %v has %d chunks, want 2", r, counts[r])
		}
	}
	// Deterministic per key.
	again := p.Locate("key-1", 12)
	for i := range locs {
		if locs[i] != again[i] {
			t.Fatal("rotating placement must be deterministic per key")
		}
	}
	// Different keys should eventually rotate to a different start.
	varied := false
	for i := 0; i < 50 && !varied; i++ {
		other := p.Locate(string(rune('a'+i))+"-key", 12)
		if other[0] != locs[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("rotation never varied the start region over 50 keys")
	}
}

func TestChunksIn(t *testing.T) {
	p := NewRoundRobin(DefaultRegions(), false)
	got := ChunksIn(p, "k", 12, Tokyo)
	if len(got) != 2 || got[0] != int(Tokyo) || got[1] != int(Tokyo)+6 {
		t.Fatalf("ChunksIn Tokyo = %v", got)
	}
}

func TestPlanFetchOrdering(t *testing.T) {
	m := DefaultMatrix()
	p := NewRoundRobin(DefaultRegions(), false)
	plan := PlanFetch(m, p, "k", 12, Frankfurt)
	if len(plan.Chunks) != 12 {
		t.Fatalf("plan has %d chunks", len(plan.Chunks))
	}
	for i := 1; i < len(plan.Latency); i++ {
		if plan.Latency[i] < plan.Latency[i-1] {
			t.Fatalf("plan not sorted by latency at %d", i)
		}
	}
	// The two nearest chunks for a Frankfurt client are the Frankfurt ones.
	if plan.Region[0] != Frankfurt || plan.Region[1] != Frankfurt {
		t.Fatalf("nearest chunks should be local, got %v %v", plan.Region[0], plan.Region[1])
	}
	// The three furthest: Sydney x2 then ... furthest overall must be Sydney.
	last := plan.Region[len(plan.Region)-1]
	if last != Sydney {
		t.Fatalf("furthest chunk should be in Sydney, got %v", last)
	}
}

func TestNearestK(t *testing.T) {
	m := DefaultMatrix()
	p := NewRoundRobin(DefaultRegions(), false)
	plan := PlanFetch(m, p, "k", 12, Frankfurt)
	near := plan.NearestK(9)
	if len(near) != 9 {
		t.Fatalf("NearestK(9) returned %d chunks", len(near))
	}
	// With the default matrix, the 9 nearest from Frankfurt must exclude
	// both Sydney chunks and one Tokyo chunk.
	excluded := map[int]bool{}
	for _, c := range near {
		excluded[c] = true
	}
	sydneyChunks := ChunksIn(p, "k", 12, Sydney)
	for _, c := range sydneyChunks {
		if excluded[c] {
			t.Fatalf("Sydney chunk %d should not be among nearest 9", c)
		}
	}
}

func TestFurthestRetained(t *testing.T) {
	m := DefaultMatrix()
	p := NewRoundRobin(DefaultRegions(), false)
	plan := PlanFetch(m, p, "k", 12, Frankfurt)

	// Weight 1: the single furthest retained chunk is the Tokyo chunk that
	// survives the discard of the m=3 furthest (Sydney x2 + Tokyo x1).
	w1 := plan.FurthestRetained(9, 1)
	if len(w1) != 1 {
		t.Fatalf("w1 = %v", w1)
	}
	tokyoChunks := ChunksIn(p, "k", 12, Tokyo)
	if w1[0] != tokyoChunks[0] && w1[0] != tokyoChunks[1] {
		t.Fatalf("weight-1 option should cache a Tokyo chunk, got chunk %d", w1[0])
	}

	// Weight 3: Tokyo x1 + Sao Paulo x2.
	w3 := plan.FurthestRetained(9, 3)
	regions := map[RegionID]int{}
	locs := p.Locate("k", 12)
	for _, c := range w3 {
		regions[locs[c]]++
	}
	if regions[Tokyo] != 1 || regions[SaoPaulo] != 2 {
		t.Fatalf("weight-3 retained regions = %v", regions)
	}

	// Weight k returns all retained chunks; weight > k clamps.
	if got := plan.FurthestRetained(9, 12); len(got) != 9 {
		t.Fatalf("FurthestRetained clamp failed: %d", len(got))
	}
}

func TestMaxLatencyExcluding(t *testing.T) {
	m := DefaultMatrix()
	p := NewRoundRobin(DefaultRegions(), false)
	plan := PlanFetch(m, p, "k", 12, Frankfurt)

	// Nothing cached: max over nearest 9 = Tokyo latency (980ms).
	if got := plan.MaxLatencyExcluding(9, nil); time.Duration(got) != 980*time.Millisecond {
		t.Fatalf("uncached max = %v, want 980ms", time.Duration(got))
	}

	// Cache the weight-3 set: max should fall to N. Virginia (850ms).
	excl := map[int]bool{}
	for _, c := range plan.FurthestRetained(9, 3) {
		excl[c] = true
	}
	if got := plan.MaxLatencyExcluding(9, excl); time.Duration(got) != 850*time.Millisecond {
		t.Fatalf("w3 max = %v, want 850ms", time.Duration(got))
	}

	// Cache everything: 0 remains.
	for _, c := range plan.FurthestRetained(9, 9) {
		excl[c] = true
	}
	if got := plan.MaxLatencyExcluding(9, excl); got != 0 {
		t.Fatalf("fully cached max = %v, want 0", time.Duration(got))
	}
}
