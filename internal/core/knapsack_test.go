package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/agardist/agar/internal/geo"
)

// randomOptionSet builds a synthetic option set with cumulative per-key
// values, the same structural shape GenerateOptions emits.
func randomOptionSet(r *rand.Rand, nKeys, k int) *OptionSet {
	perKey := make(map[string][]Option, nKeys)
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("key-%03d", i)
		pop := r.Float64() * 100
		var opts []Option
		value := 0.0
		for w := 1; w <= k; w++ {
			value += pop * (r.Float64() * 50) // non-decreasing in w
			opts = append(opts, Option{Key: key, Weight: w, Value: value})
		}
		perKey[key] = opts
	}
	return NewOptionSet(perKey)
}

func configIsValid(t *testing.T, cfg *Config, set *OptionSet, cacheSize int) {
	t.Helper()
	w, v := 0, 0.0
	for key, o := range cfg.Options {
		if o.Key != key {
			t.Fatalf("config maps %q to option for %q", key, o.Key)
		}
		found, ok := set.Search(key, o.Weight)
		if !ok || found.Value != o.Value {
			t.Fatalf("config holds option not in set: %v", o)
		}
		w += o.Weight
		v += o.Value
	}
	if w != cfg.Weight {
		t.Fatalf("config weight %d, recomputed %d", cfg.Weight, w)
	}
	if diff := cfg.Value - v; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("config value %v, recomputed %v", cfg.Value, v)
	}
	if cfg.Weight > cacheSize {
		t.Fatalf("config weight %d exceeds cache size %d", cfg.Weight, cacheSize)
	}
}

func TestPopulateEmptyAndTrivial(t *testing.T) {
	set := NewOptionSet(nil)
	cfg := Populate(set, 10, PopulateParams{})
	if cfg.Weight != 0 || len(cfg.Options) != 0 {
		t.Fatal("empty set must yield empty config")
	}
	if cfg := Populate(randomOptionSet(rand.New(rand.NewSource(1)), 5, 3), 0, PopulateParams{}); cfg.Weight != 0 {
		t.Fatal("zero cache must yield empty config")
	}
}

func TestPopulateSingleKeyPicksBestFit(t *testing.T) {
	set := NewOptionSet(map[string][]Option{
		"k": {
			{Key: "k", Weight: 1, Value: 10},
			{Key: "k", Weight: 3, Value: 40},
			{Key: "k", Weight: 5, Value: 45},
		},
	})
	// Cache of 4: best single option that fits is weight 3 (value 40).
	cfg := Populate(set, 4, PopulateParams{})
	if cfg.Value != 40 || cfg.Weight != 3 {
		t.Fatalf("config = %v", cfg)
	}
	// Cache of 10: weight 5 (value 45) wins.
	cfg = Populate(set, 10, PopulateParams{})
	if cfg.Value != 45 {
		t.Fatalf("config = %v", cfg)
	}
}

func TestPopulateOneOptionPerKey(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	set := randomOptionSet(r, 20, 5)
	cfg := Populate(set, 25, PopulateParams{})
	configIsValid(t, cfg, set, 25)
}

func TestPopulateBeatsGreedyOnBalance(t *testing.T) {
	// Both populate and greedy are heuristics; populate should win or tie
	// on the overwhelming majority of instances and on aggregate value
	// (the paper's §II-D argument for a tailored algorithm).
	wins, losses := 0, 0
	var dpTotal, grTotal float64
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		set := randomOptionSet(r, 15, 9)
		size := 10 + r.Intn(40)
		dp := Populate(set, size, PopulateParams{})
		gr := Greedy(set, size)
		dpTotal += dp.Value
		grTotal += gr.Value
		switch {
		case dp.Value >= gr.Value-1e-9:
			wins++
		default:
			losses++
		}
	}
	if losses > wins/4 {
		t.Fatalf("populate lost to greedy too often: %d wins, %d losses", wins, losses)
	}
	if dpTotal < grTotal {
		t.Fatalf("populate aggregate %v below greedy aggregate %v", dpTotal, grTotal)
	}
}

func TestSolverBoundsQuick(t *testing.T) {
	// populate and greedy both emit valid configs whose value never exceeds
	// the exact optimum; no solver overflows the cache.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		set := randomOptionSet(r, 4+r.Intn(12), 1+r.Intn(9))
		size := 1 + r.Intn(30)
		gr := Greedy(set, size)
		dp := Populate(set, size, PopulateParams{})
		ex := ExactMCKP(set, size)
		if gr.Weight > size || dp.Weight > size || ex.Weight > size {
			return false
		}
		return gr.Value <= ex.Value+1e-9 && dp.Value <= ex.Value+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPopulateNearOptimalOnRealisticInstances(t *testing.T) {
	// On option sets generated from the actual latency model and Zipfian
	// popularity, the heuristic should land within a few percent of the
	// exact optimum.
	m := geo.DefaultMatrix()
	p := geo.NewRoundRobin(geo.DefaultRegions(), true)
	r := rand.New(rand.NewSource(7))
	perKey := make(map[string][]Option)
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("object-%03d", i)
		pop := 100 / float64(i+1) * (0.5 + r.Float64()) // zipf-ish with noise
		plan := geo.PlanFetch(m, p, key, 12, geo.Frankfurt)
		perKey[key] = GenerateOptions(key, pop, plan, 9, DefaultWeightGrid(9), 20*time.Millisecond)
	}
	set := NewOptionSet(perKey)
	for _, size := range []int{18, 45, 90, 180} {
		dp := Populate(set, size, PopulateParams{})
		ex := ExactMCKP(set, size)
		if ex.Value == 0 {
			t.Fatalf("size %d: exact found nothing", size)
		}
		ratio := dp.Value / ex.Value
		if ratio < 0.95 {
			t.Errorf("size %d: populate/exact = %.3f (dp=%v ex=%v)", size, ratio, dp.Value, ex.Value)
		}
	}
}

func TestExactMCKPKnownInstance(t *testing.T) {
	// Two keys, cache 4: best is a's w3 (40) + b's w1 (25) = 65, not a's
	// w4 (42) alone nor b's w4 (60) alone.
	set := NewOptionSet(map[string][]Option{
		"a": {
			{Key: "a", Weight: 3, Value: 40},
			{Key: "a", Weight: 4, Value: 42},
		},
		"b": {
			{Key: "b", Weight: 1, Value: 25},
			{Key: "b", Weight: 4, Value: 60},
		},
	})
	cfg := ExactMCKP(set, 4)
	if cfg.Value != 65 || cfg.Weight != 4 {
		t.Fatalf("exact config = %v", cfg)
	}
	if cfg.Options["a"].Weight != 3 || cfg.Options["b"].Weight != 1 {
		t.Fatalf("exact picked wrong options: %v", cfg)
	}
}

// exactMCKPReference is the table formulation ExactMCKP shipped as before
// it became the live solver: one 32-byte cell per (key, weight), options
// pushed forward from every valid cell. It stays as the oracle the
// single-row program is checked against.
func exactMCKPReference(set *OptionSet, cacheSize int) *Config {
	if cacheSize <= 0 {
		return NewConfig()
	}
	type cell struct {
		value  float64
		valid  bool
		optIdx int // option index within the key's list, -1 = skip key
		prevW  int
	}
	keys := set.Keys
	// dp[i][w]: best value using the first i keys at exactly weight w.
	dp := make([][]cell, len(keys)+1)
	for i := range dp {
		dp[i] = make([]cell, cacheSize+1)
	}
	dp[0][0] = cell{valid: true, optIdx: -1}

	for i, key := range keys {
		opts := set.PerKey[key]
		for w := 0; w <= cacheSize; w++ {
			if !dp[i][w].valid {
				continue
			}
			// Skip this key.
			if cur := &dp[i+1][w]; !cur.valid || cur.value < dp[i][w].value {
				*cur = cell{value: dp[i][w].value, valid: true, optIdx: -1, prevW: w}
			}
			// Take each option.
			for oi, o := range opts {
				nw := w + o.Weight
				if o.Weight <= 0 || nw > cacheSize {
					continue
				}
				nv := dp[i][w].value + o.Value
				if cur := &dp[i+1][nw]; !cur.valid || cur.value < nv {
					*cur = cell{value: nv, valid: true, optIdx: oi, prevW: w}
				}
			}
		}
	}

	// Best final weight.
	bestW, bestV := 0, -1.0
	for w := 0; w <= cacheSize; w++ {
		if dp[len(keys)][w].valid && dp[len(keys)][w].value > bestV {
			bestW, bestV = w, dp[len(keys)][w].value
		}
	}

	// Reconstruct.
	cfg := NewConfig()
	w := bestW
	for i := len(keys); i > 0; i-- {
		c := dp[i][w]
		if c.optIdx >= 0 {
			cfg.Add(set.PerKey[keys[i-1]][c.optIdx])
		}
		w = c.prevW
	}
	return cfg
}

// sameChoices fails the test unless both configurations pick the same
// option for every key and agree on weight and on value bit for bit.
func sameChoices(t *testing.T, label string, got, want *Config) {
	t.Helper()
	if got.Weight != want.Weight || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("%s: got w=%d v=%v, reference w=%d v=%v", label, got.Weight, got.Value, want.Weight, want.Value)
	}
	if len(got.Options) != len(want.Options) {
		t.Fatalf("%s: got %d configured keys, reference %d", label, len(got.Options), len(want.Options))
	}
	for key, w := range want.Options {
		if g, ok := got.Options[key]; !ok || g.Weight != w.Weight || g.Value != w.Value {
			t.Fatalf("%s: key %s got %v, reference %v", label, key, g, w)
		}
	}
}

// TestExactMCKPMatchesReference is the seeded differential test: on random
// instances up to 400 keys x 1000 slots the single-row program, run on one
// scratch reused from instance to instance the way a CacheManager reuses
// it, must make the reference's choice for every key.
func TestExactMCKPMatchesReference(t *testing.T) {
	instances := 240
	if testing.Short() {
		instances = 40
	}
	r := rand.New(rand.NewSource(22))
	var scratch mckpScratch
	for n := 0; n < instances; n++ {
		keys, slots, k := 1+r.Intn(400), 1+r.Intn(1000), 3
		if n%2 == 1 {
			k = 9
		}
		if n%8 == 0 { // small instances, where the cache holds every key's heaviest option
			keys, slots = 1+r.Intn(12), 1+r.Intn(120)
		}
		set := randomOptionSet(r, keys, k)
		label := fmt.Sprintf("instance %d (%d keys x %d slots, k=%d)", n, keys, slots, k)
		want := exactMCKPReference(set, slots)
		sameChoices(t, label, scratch.solve(set, slots), want)
		configIsValid(t, want, set, slots)
	}
}

// TestExactMCKPTieBreak pins the order ties resolve in: higher value, then
// lower total weight, then slots to the key earlier in OptionSet.Keys.
func TestExactMCKPTieBreak(t *testing.T) {
	// a, b and c are interchangeable (Keys orders them by name) and the
	// cache holds two of them: the earlier two win.
	same := func(key string) []Option {
		return []Option{{Key: key, Weight: 1, Value: 4}, {Key: key, Weight: 2, Value: 10}}
	}
	set := NewOptionSet(map[string][]Option{"c": same("c"), "a": same("a"), "b": same("b")})
	cfg := ExactMCKP(set, 4)
	if cfg.Value != 20 || cfg.Weight != 4 || cfg.Options["a"].Weight != 2 || cfg.Options["b"].Weight != 2 {
		t.Fatalf("equal keys: %v, want a and b at weight 2", cfg)
	}
	// With one slot over, the spare goes to nobody's heavier option but to
	// the next key in order, still worth more than leaving it empty.
	if cfg = ExactMCKP(set, 5); cfg.Value != 24 || cfg.Options["c"].Weight != 1 {
		t.Fatalf("cache 5: %v, want c at weight 1", cfg)
	}
	// Equal value at different weights: the lighter configuration wins, so
	// a heavier option that adds nothing is never taken.
	flat := NewOptionSet(map[string][]Option{
		"k": {{Key: "k", Weight: 1, Value: 7}, {Key: "k", Weight: 2, Value: 7}, {Key: "k", Weight: 3, Value: 7}},
	})
	if cfg = ExactMCKP(flat, 3); cfg.Weight != 1 || cfg.Value != 7 {
		t.Fatalf("flat options: %v, want weight 1", cfg)
	}
	// One key's heavy option against two keys' light ones at the same value
	// and weight: the later key yields.
	split := NewOptionSet(map[string][]Option{
		"a": {{Key: "a", Weight: 1, Value: 5}, {Key: "a", Weight: 2, Value: 10}},
		"b": {{Key: "b", Weight: 1, Value: 5}, {Key: "b", Weight: 2, Value: 10}},
	})
	if cfg = ExactMCKP(split, 2); cfg.Options["a"].Weight != 2 || len(cfg.Options) != 1 {
		t.Fatalf("split: %v, want a alone at weight 2", cfg)
	}
}

// TestExactMCKPSteadyStateAllocs: once the scratch has seen an instance of
// this shape, a solve allocates the Config it returns and next to nothing
// else — in particular nothing that scales with keys x slots.
func TestExactMCKPSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	first, second := randomOptionSet(r, 300, 9), randomOptionSet(r, 300, 9)
	const slots = 540
	var scratch mckpScratch
	scratch.solve(first, slots)
	var cfg *Config
	solve := testing.AllocsPerRun(5, func() { cfg = scratch.solve(second, slots) })
	// What returning that Config costs on its own: the same options added
	// to a fresh one.
	config := testing.AllocsPerRun(5, func() {
		out := NewConfig()
		for _, key := range second.Keys {
			if o, ok := cfg.Options[key]; ok {
				out.Add(o)
			}
		}
	})
	if solve-config > 8 {
		t.Fatalf("steady-state solve made %.0f allocations, %.0f of them the Config: want at most 8 more", solve, config)
	}
}

func TestGreedyCanErr(t *testing.T) {
	// Classic knapsack trap: density-greedy takes the small dense item and
	// wastes capacity. greedy < exact here proves the baseline is honest.
	set := NewOptionSet(map[string][]Option{
		"small": {{Key: "small", Weight: 1, Value: 10}}, // density 10
		"big":   {{Key: "big", Weight: 2, Value: 18}},   // density 9
	})
	// Cache 2: greedy takes small (10) and cannot fit big; exact takes big (18).
	gr := Greedy(set, 2)
	ex := ExactMCKP(set, 2)
	if gr.Value != 10 || ex.Value != 18 {
		t.Fatalf("greedy=%v exact=%v", gr.Value, ex.Value)
	}
}

func TestPopulateHandlesGreedyTrap(t *testing.T) {
	set := NewOptionSet(map[string][]Option{
		"small": {{Key: "small", Weight: 1, Value: 10}},
		"big":   {{Key: "big", Weight: 2, Value: 18}},
	})
	cfg := Populate(set, 2, PopulateParams{})
	if cfg.Value != 18 {
		t.Fatalf("populate fell into the greedy trap: %v", cfg)
	}
}

func TestPopulateRelaxShrinksIncumbent(t *testing.T) {
	// A scenario where RELAX matters: hot key occupies the whole cache;
	// a new key's option only fits if the hot key shrinks.
	set := NewOptionSet(map[string][]Option{
		"hot": {
			{Key: "hot", Weight: 2, Value: 80},
			{Key: "hot", Weight: 4, Value: 100},
		},
		"warm": {
			{Key: "warm", Weight: 2, Value: 60},
		},
	})
	cfg := Populate(set, 4, PopulateParams{})
	// Optimal: hot w2 (80) + warm w2 (60) = 140 > hot w4 (100).
	if cfg.Value != 140 {
		t.Fatalf("populate missed the relax move: %v", cfg)
	}
}

func TestPopulateEarlyStopStillValid(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	set := randomOptionSet(r, 40, 9)
	full := Populate(set, 30, PopulateParams{})
	early := Populate(set, 30, PopulateParams{EarlyStop: 50})
	configIsValid(t, early, set, 30)
	if early.Value > full.Value+1e-9 {
		t.Fatal("early stop produced higher value than full run (impossible)")
	}
	// With a generous iteration budget the early-stopped result should be
	// close to the full run.
	if full.Value > 0 && early.Value/full.Value < 0.8 {
		t.Errorf("early stop lost too much: %v vs %v", early.Value, full.Value)
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	cfg := NewConfig()
	cfg.Add(Option{Key: "a", Weight: 2, Value: 5})
	cp := cfg.Clone()
	cp.Add(Option{Key: "b", Weight: 1, Value: 1})
	if _, ok := cfg.Options["b"]; ok {
		t.Fatal("clone shares map")
	}
	if cfg.Weight != 2 || cp.Weight != 3 {
		t.Fatal("weights wrong after clone")
	}
}

func TestConfigAddDuplicatePanics(t *testing.T) {
	cfg := NewConfig()
	cfg.Add(Option{Key: "a", Weight: 1, Value: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	cfg.Add(Option{Key: "a", Weight: 2, Value: 2})
}

func TestConfigReplace(t *testing.T) {
	cfg := NewConfig()
	cfg.Add(Option{Key: "a", Weight: 3, Value: 30})
	cfg.Replace("a", Option{Key: "a", Weight: 1, Value: 12})
	if cfg.Weight != 1 || cfg.Value != 12 {
		t.Fatalf("after replace: %v", cfg)
	}
	// Replace with the empty option deletes the key.
	cfg.Replace("a", Option{Key: "a"})
	if len(cfg.Options) != 0 || cfg.Weight != 0 {
		t.Fatalf("after evict: %v", cfg)
	}
}

func TestConfigChunksFor(t *testing.T) {
	cfg := NewConfig()
	cfg.Add(Option{Key: "a", Weight: 2, Value: 1, Chunks: []int{4, 10}})
	got := cfg.ChunksFor("a")
	if len(got) != 2 || got[0] != 4 {
		t.Fatalf("ChunksFor = %v", got)
	}
	got[0] = 99
	if cfg.Options["a"].Chunks[0] == 99 {
		t.Fatal("ChunksFor returned shared storage")
	}
	if cfg.ChunksFor("absent") != nil {
		t.Fatal("absent key must return nil")
	}
}

func BenchmarkPopulate300Keys(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	set := randomOptionSet(r, 300, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Populate(set, 90, PopulateParams{})
	}
}

func BenchmarkPopulateEarlyStop300Keys(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	set := randomOptionSet(r, 300, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Populate(set, 90, PopulateParams{EarlyStop: 64})
	}
}

func BenchmarkExactMCKP300Keys(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	set := randomOptionSet(r, 300, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactMCKP(set, 90)
	}
}

// zipfOptionSet is the option set a live cluster's manager solves over:
// Zipfian popularity (20000 requests' worth, as the repository benchmark
// records) valued by GenerateOptions on the default deployment as seen from
// Frankfurt.
func zipfOptionSet(nKeys int, skew float64) *OptionSet {
	m := geo.DefaultMatrix()
	p := geo.NewRoundRobin(geo.DefaultRegions(), false)
	total := 0.0
	for i := 0; i < nKeys; i++ {
		total += math.Pow(float64(i+1), -skew)
	}
	perKey := make(map[string][]Option, nKeys)
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("object-%05d", i)
		pop := 20000 * math.Pow(float64(i+1), -skew) / total
		plan := geo.PlanFetch(m, p, key, 12, geo.Frankfurt)
		perKey[key] = GenerateOptions(key, pop, plan, 9, DefaultWeightGrid(9), 20*time.Millisecond)
	}
	return NewOptionSet(perKey)
}

var benchConfig *Config

// BenchmarkSolve times the three solvers on Zipf-valued option sets — the
// repository benchmark's four shapes (read-large 200x180, read-small
// 400x360, write-heavy 100x900, wan-mixed 240x432, each at its workload's
// skew), then paper scale and well past it — reporting each one's share of
// the optimum. The exact solver runs on a scratch kept between iterations,
// as a CacheManager keeps it between periods. POPULATE stops at 1000 keys,
// where it needs tens of seconds.
func BenchmarkSolve(b *testing.B) {
	shapes := []struct {
		keys, slots int
		skew        float64
	}{
		{200, 180, 1.1}, {400, 360, 0.9}, {100, 900, 0.9}, {240, 432, 1.1},
		{1000, 900, 1.1}, {3000, 2700, 1.1}, {10000, 4096, 1.1},
	}
	var scratch mckpScratch
	solvers := []struct {
		name    string
		maxKeys int
		solve   func(*OptionSet, int) *Config
	}{
		{"populate", 1000, func(set *OptionSet, slots int) *Config { return Populate(set, slots, PopulateParams{}) }},
		{"exact", math.MaxInt, scratch.solve},
		{"greedy", math.MaxInt, Greedy},
	}
	for _, sv := range solvers {
		for _, sh := range shapes {
			if sh.keys > sv.maxKeys {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dx%d", sv.name, sh.keys, sh.slots), func(b *testing.B) {
				set := zipfOptionSet(sh.keys, sh.skew)
				optimum := scratch.solve(set, sh.slots).Value
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchConfig = sv.solve(set, sh.slots)
				}
				b.ReportMetric(benchConfig.Value/optimum, "value/optimum")
			})
		}
	}
}
