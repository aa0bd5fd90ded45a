package core

import (
	"math"
	"slices"
	"sort"
)

// ExactMCKP solves the cache-configuration problem exactly. Choosing at
// most one caching option per object under a total weight budget is the
// multiple-choice knapsack problem; its dynamic program is
// pseudo-polynomial in the cache size, which is small here (hundreds to a
// few thousand chunk slots), so the optimum costs milliseconds. Live
// deployments run it every period through a CacheManager, which keeps the
// solver's scratch across periods; this entry point solves one instance on
// fresh scratch.
//
// Ties are pinned so equal inputs give equal configurations: a higher value
// wins; between equal values the lower total weight wins; between equal
// value and weight the key later in OptionSet.Keys order takes the lighter
// option (or none), so contested slots go to the keys earlier in that
// order.
func ExactMCKP(set *OptionSet, cacheSize int) *Config {
	var s mckpScratch
	return s.solve(set, cacheSize)
}

// mckpMaxOptions is how many options one key may have: a choice is stored
// as option index + 1 in one byte, zero meaning the key is not cached.
const mckpMaxOptions = math.MaxUint8

// mckpScratch is the exact solver's working memory, reusable across solves:
// nothing in it survives a solve, and a solve of an instance no larger than
// an earlier one allocates only the Config it returns.
type mckpScratch struct {
	// row[w] is the best value of the keys swept so far at total weight
	// exactly w; -Inf marks a weight no choice of options reaches.
	row []float64
	// choice holds one row of cacheSize+1 bytes per key: the option the key
	// takes in the best configuration of weight w over the keys up to it.
	choice []uint8
	// weights, values and index are the current key's options worth
	// considering, unpacked so the inner loop does not stride over whole
	// Option structs; index is the byte a choice of that option stores.
	weights []int
	values  []float64
	index   []uint8
}

func (s *mckpScratch) solve(set *OptionSet, cacheSize int) *Config {
	cfg := NewConfig()
	if cacheSize <= 0 || len(set.Keys) == 0 {
		return cfg
	}
	stride := cacheSize + 1
	// Contents are not kept: the row is reset below and every choice the
	// walk back reads was written by this solve.
	s.row = slices.Grow(s.row[:0], stride)[:stride]
	s.choice = slices.Grow(s.choice[:0], len(set.Keys)*stride)[:len(set.Keys)*stride]
	s.row[0] = 0
	for w := 1; w < stride; w++ {
		s.row[w] = math.Inf(-1)
	}

	// One in-place sweep per key, heaviest total weight first: a key
	// contributes at most one option and every option weighs at least one
	// slot, so row[w-ow] still holds the previous key's value when row[w]
	// is decided. reach is the heaviest weight any choice over the keys so
	// far attains; above it the row is -Inf and is neither read nor written.
	reach := 0
	for i, key := range set.Keys {
		opts := set.PerKey[key]
		if len(opts) > mckpMaxOptions {
			panic("core: ExactMCKP supports at most 255 options per key")
		}
		// Options are sorted by weight. One that caches nothing, or is worth
		// no more than a lighter one, is in no configuration the tie-break
		// would keep, so the sweep leaves it out.
		s.weights, s.values, s.index = s.weights[:0], s.values[:0], s.index[:0]
		heaviest, richest := 0, 0.0
		for oi, o := range opts {
			if o.Weight > 0 && o.Weight <= cacheSize && o.Value > richest {
				s.weights = append(s.weights, o.Weight)
				s.values = append(s.values, o.Value)
				s.index = append(s.index, uint8(oi+1))
				heaviest, richest = o.Weight, o.Value
			}
		}
		reach = min(cacheSize, reach+heaviest)
		s.sweep(s.choice[i*stride:(i+1)*stride], reach)
	}
	row := s.row

	bestW := 0
	for w := 1; w <= reach; w++ {
		if row[w] > row[bestW] {
			bestW = w
		}
	}
	// Walk the choices back from the last key. The returned Value is summed
	// in this order, not read from the row, so it is the same float the
	// table formulation of this program produces.
	w := bestW
	for i := len(set.Keys) - 1; i >= 0; i-- {
		if pick := s.choice[i*stride+w]; pick > 0 {
			o := set.PerKey[set.Keys[i]][pick-1]
			cfg.Add(o)
			w -= o.Weight
		}
	}
	return cfg
}

// sweep folds the current key's options into the row in place for total
// weights reach down to 0, recording the key's choice at each.
func (s *mckpScratch) sweep(choice []uint8, reach int) {
	row, weights, values, index := s.row, s.weights, s.values, s.index
	values, index = values[:len(weights)], index[:len(weights)]
	for w := reach; w >= 0; w-- {
		best, pick := row[w], uint8(0)
		below := row[:w]
		for oi, ow := range weights {
			if ow > w {
				break
			}
			if v := below[w-ow] + values[oi]; v > best {
				best, pick = v, index[oi]
			}
		}
		row[w], choice[w] = best, pick
	}
}

// Greedy picks options by value density (value per chunk slot), highest
// first, one option per key, skipping anything that no longer fits. The
// paper notes greedy algorithms "can err by as much as 50% from the optimal
// value" on 0/1 knapsack (§II-D); this implementation exists to quantify
// that gap in the ablation benchmarks.
func Greedy(set *OptionSet, cacheSize int) *Config {
	type cand struct {
		opt     Option
		density float64
	}
	var cands []cand
	for _, key := range set.Keys {
		for _, o := range set.PerKey[key] {
			if o.Weight <= 0 {
				continue
			}
			cands = append(cands, cand{opt: o, density: o.Value / float64(o.Weight)})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density > cands[j].density
		}
		// Prefer heavier options at equal density (more total value).
		return cands[i].opt.Weight > cands[j].opt.Weight
	})
	cfg := NewConfig()
	for _, c := range cands {
		if _, taken := cfg.Options[c.opt.Key]; taken {
			continue
		}
		if cfg.Weight+c.opt.Weight > cacheSize {
			continue
		}
		cfg.Add(c.opt)
	}
	return cfg
}
