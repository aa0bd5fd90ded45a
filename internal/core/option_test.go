package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// paperPlan reproduces the §IV-A worked example: Frankfurt's view of an
// object placed round-robin (fixed) over the six regions with Table I
// latencies.
func paperPlan(t *testing.T, key string) geo.FetchPlan {
	t.Helper()
	m := geo.TableIMatrix()
	p := geo.NewRoundRobin(geo.DefaultRegions(), false)
	return geo.PlanFetch(m, p, key, 12, geo.Frankfurt)
}

func TestWeightGrids(t *testing.T) {
	full := DefaultWeightGrid(9)
	if len(full) != 9 || full[0] != 1 || full[8] != 9 {
		t.Fatalf("DefaultWeightGrid(9) = %v", full)
	}
	paper := PaperWeightGrid(9)
	want := []int{1, 3, 5, 7, 9}
	if len(paper) != len(want) {
		t.Fatalf("PaperWeightGrid(9) = %v", paper)
	}
	for i := range want {
		if paper[i] != want[i] {
			t.Fatalf("PaperWeightGrid(9) = %v, want %v", paper, want)
		}
	}
	// Even k must still end at k.
	even := PaperWeightGrid(4)
	if even[len(even)-1] != 4 {
		t.Fatalf("PaperWeightGrid(4) = %v", even)
	}
}

func TestGenerateOptionsPaperExample(t *testing.T) {
	// §IV-A: popularity 80 (first period, frequency 100, alpha 0.8).
	// Weight-1 option caches the retained Tokyo block; its improvement is
	// 2,000 ms (Tokyo 3,400 - Sao Paulo 1,400), value 80 x 2,000 = 160,000.
	plan := paperPlan(t, "key1")
	opts := GenerateOptions("key1", 80, plan, 9, PaperWeightGrid(9), 20*time.Millisecond)
	if len(opts) != 5 {
		t.Fatalf("got %d options, want 5 (weights 1,3,5,7,9)", len(opts))
	}

	w1 := opts[0]
	if w1.Weight != 1 {
		t.Fatalf("first option weight %d", w1.Weight)
	}
	if w1.Value != 80*2000 {
		t.Fatalf("weight-1 value = %v, want 160000", w1.Value)
	}

	// Cumulative values for the remaining grid points, from Table I:
	// w3 caches Tokyo+SaoPaulo x2 -> residual N.Virginia 600: 80x2800.
	// w5 adds N.Virginia x2 -> residual Dublin 200: 80x3200.
	// w7 adds Dublin x2 -> residual Frankfurt 80: 80x3320.
	// w9 adds Frankfurt x2 -> residual cache 20ms: 80x3380.
	wantValues := map[int]float64{
		3: 80 * 2800,
		5: 80 * 3200,
		7: 80 * 3320,
		9: 80 * 3380,
	}
	for _, o := range opts[1:] {
		want, ok := wantValues[o.Weight]
		if !ok {
			t.Fatalf("unexpected weight %d", o.Weight)
		}
		if o.Value != want {
			t.Fatalf("weight-%d value = %v, want %v", o.Weight, o.Value, want)
		}
		if len(o.Chunks) != o.Weight {
			t.Fatalf("weight-%d option has %d chunks", o.Weight, len(o.Chunks))
		}
	}
}

func TestGenerateOptionsMarginalExample(t *testing.T) {
	// The paper presents the second option's value marginally:
	// 80 x (1400 - 600) = 64,000 on top of option 1. Cumulatively, option 2
	// minus option 1 must equal exactly that.
	plan := paperPlan(t, "key1")
	opts := GenerateOptions("key1", 80, plan, 9, PaperWeightGrid(9), 20*time.Millisecond)
	if got := opts[1].Value - opts[0].Value; got != 64000 {
		t.Fatalf("marginal value of option 2 = %v, want 64000", got)
	}
}

func TestGenerateOptionsDiscardsFurthest(t *testing.T) {
	// No generated option may cache a chunk stored in Sydney (the m=3
	// furthest chunks from Frankfurt are 2x Sydney + 1x Tokyo).
	plan := paperPlan(t, "key1")
	p := geo.NewRoundRobin(geo.DefaultRegions(), false)
	locs := p.Locate("key1", 12)
	opts := GenerateOptions("key1", 80, plan, 9, DefaultWeightGrid(9), 20*time.Millisecond)
	for _, o := range opts {
		for _, c := range o.Chunks {
			if locs[c] == geo.Sydney {
				t.Fatalf("weight-%d option caches Sydney chunk %d", o.Weight, c)
			}
		}
	}
}

func TestGenerateOptionsMonotonic(t *testing.T) {
	// Values must be non-decreasing in weight (cumulative improvements).
	plan := paperPlan(t, "k")
	opts := GenerateOptions("k", 10, plan, 9, DefaultWeightGrid(9), 20*time.Millisecond)
	for i := 1; i < len(opts); i++ {
		if opts[i].Value < opts[i-1].Value {
			t.Fatalf("value decreased from weight %d to %d", opts[i-1].Weight, opts[i].Weight)
		}
		if opts[i].Weight != opts[i-1].Weight+1 {
			t.Fatalf("weights not consecutive: %d -> %d", opts[i-1].Weight, opts[i].Weight)
		}
	}
}

// generateOptionsBySets is GenerateOptions spelled the way §IV-A reads: the
// weight-w option caches FurthestRetained(k, w) and is valued by the
// furthest chunk still fetched once that set is excluded.
func generateOptionsBySets(key string, popularity float64, plan geo.FetchPlan, k int, grid []int, cacheLat time.Duration) []Option {
	popularity = max(popularity, 0)
	residual := func(cached map[int]bool) time.Duration {
		rem := time.Duration(plan.MaxLatencyExcluding(k, cached))
		if len(cached) > 0 && rem < cacheLat {
			rem = cacheLat
		}
		return rem
	}
	var out []Option
	for _, w := range grid {
		if w <= 0 {
			continue
		}
		w = min(w, k)
		chunks := plan.FurthestRetained(k, w)
		cached := make(map[int]bool, len(chunks))
		for _, c := range chunks {
			cached[c] = true
		}
		improvement := max(residual(nil)-residual(cached), 0)
		out = append(out, Option{Key: key, Chunks: chunks, Weight: len(chunks),
			Value: popularity * float64(improvement) / float64(time.Millisecond)})
		if w == k {
			break
		}
	}
	return out
}

// TestGenerateOptionsMatchesSetFormulation checks the allocation-light
// generator against the set formulation on rotated placements, peer-adjusted
// plans, plans shorter than k and both weight grids.
func TestGenerateOptionsMatchesSetFormulation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := geo.DefaultMatrix()
	p := geo.NewRoundRobin(geo.DefaultRegions(), true)
	for n := 0; n < 300; n++ {
		key := fmt.Sprintf("object-%d", r.Intn(1000))
		total := 12
		if n%7 == 0 {
			total = 1 + r.Intn(12) // fewer chunks than k
		}
		plan := geo.PlanFetch(m, p, key, total, geo.RegionID(r.Intn(6)))
		if n%3 == 0 {
			resident := map[int]PeerInfo{}
			for c := 0; c < total; c++ {
				if r.Intn(3) == 0 {
					resident[c] = PeerInfo{Region: geo.Dublin, Latency: time.Duration(r.Intn(400)) * time.Millisecond}
				}
			}
			plan = adjustPlanForPeers(plan, resident)
		}
		grid := DefaultWeightGrid(9)
		if n%2 == 0 {
			grid = PaperWeightGrid(9)
		}
		cacheLat := time.Duration(r.Intn(3)) * 20 * time.Millisecond
		pop := r.Float64() * 100
		got := GenerateOptions(key, pop, plan, 9, grid, cacheLat)
		want := generateOptionsBySets(key, pop, plan, 9, grid, cacheLat)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d options, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i].Weight != want[i].Weight || got[i].Value != want[i].Value ||
				!slices.Equal(got[i].Chunks, want[i].Chunks) {
				t.Fatalf("case %d option %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestGenerateOptionsZeroAndNegativePopularity(t *testing.T) {
	plan := paperPlan(t, "k")
	for _, pop := range []float64{0, -5} {
		opts := GenerateOptions("k", pop, plan, 9, PaperWeightGrid(9), 0)
		for _, o := range opts {
			if o.Value != 0 {
				t.Fatalf("popularity %v produced value %v", pop, o.Value)
			}
		}
	}
}

func TestOptionSetOrdering(t *testing.T) {
	set := NewOptionSet(map[string][]Option{
		"low":  {{Key: "low", Weight: 1, Value: 10}},
		"high": {{Key: "high", Weight: 2, Value: 100}, {Key: "high", Weight: 1, Value: 50}},
		"mid":  {{Key: "mid", Weight: 1, Value: 60}},
	})
	wantKeys := []string{"high", "mid", "low"}
	for i, k := range wantKeys {
		if set.Keys[i] != k {
			t.Fatalf("Keys = %v, want %v", set.Keys, wantKeys)
		}
	}
	// Per-key options sorted by weight.
	if set.PerKey["high"][0].Weight != 1 || set.PerKey["high"][1].Weight != 2 {
		t.Fatal("per-key options not weight-sorted")
	}
	// Ordered flattens keys-major.
	ordered := set.Ordered()
	if len(ordered) != 4 || ordered[0].Key != "high" || ordered[3].Key != "low" {
		t.Fatalf("Ordered = %v", ordered)
	}
}

func TestOptionSetSearch(t *testing.T) {
	set := NewOptionSet(map[string][]Option{
		"k": {{Key: "k", Weight: 3, Value: 30}},
	})
	if o, ok := set.Search("k", 3); !ok || o.Value != 30 {
		t.Fatal("Search missed existing option")
	}
	if _, ok := set.Search("k", 2); ok {
		t.Fatal("Search invented an option")
	}
	// Weight 0 always exists: the empty (evict-everything) option.
	if o, ok := set.Search("k", 0); !ok || o.Weight != 0 || o.Value != 0 {
		t.Fatal("weight-0 search must return the empty option")
	}
}
