package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/agardist/agar/internal/cache"
)

// Config is a cache configuration: at most one caching option per object.
type Config struct {
	// Options maps object key to the option chosen for it.
	Options map[string]Option
	// Weight is the total chunk slots occupied.
	Weight int
	// Value is the total estimated latency improvement.
	Value float64
}

// NewConfig returns an empty configuration.
func NewConfig() *Config {
	return &Config{Options: make(map[string]Option)}
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	out := &Config{
		Options: make(map[string]Option, len(c.Options)),
		Weight:  c.Weight,
		Value:   c.Value,
	}
	for k, o := range c.Options {
		out.Options[k] = o
	}
	return out
}

// Add inserts an option for a key not yet present. It panics if the key is
// already configured — callers must guard, mirroring ADDTOCONFIG's
// precondition.
func (c *Config) Add(o Option) {
	if _, ok := c.Options[o.Key]; ok {
		panic(fmt.Sprintf("core: config already holds key %q", o.Key))
	}
	if o.Weight == 0 {
		return
	}
	c.Options[o.Key] = o
	c.Weight += o.Weight
	c.Value += o.Value
}

// Replace swaps the option stored for old.Key with repl (which may be the
// empty option, deleting the key).
func (c *Config) Replace(oldKey string, repl Option) {
	old, ok := c.Options[oldKey]
	if !ok {
		panic(fmt.Sprintf("core: config does not hold key %q", oldKey))
	}
	c.Weight -= old.Weight
	c.Value -= old.Value
	delete(c.Options, oldKey)
	if repl.Weight > 0 {
		c.Options[repl.Key] = repl
		c.Weight += repl.Weight
		c.Value += repl.Value
	}
}

// ChunksFor returns the chunk indices configured for the key (nil when the
// key is not cached).
func (c *Config) ChunksFor(key string) []int {
	o, ok := c.Options[key]
	if !ok {
		return nil
	}
	return append([]int(nil), o.Chunks...)
}

// Holds reports whether the configuration assigns the chunk to the cache —
// the admission rule of a cache governed by this configuration.
func (c *Config) Holds(id cache.EntryID) bool {
	return slices.Contains(c.Options[id.Key].Chunks, id.Index)
}

// String renders the configuration sorted by key for stable test output.
func (c *Config) String() string {
	keys := make([]string, 0, len(c.Options))
	for k := range c.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "config{w=%d v=%.1f", c.Weight, c.Value)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s:%d", k, c.Options[k].Weight)
	}
	b.WriteString("}")
	return b.String()
}

// PopulateParams tunes the POPULATE dynamic program.
type PopulateParams struct {
	// EarlyStop, when positive, stops the option iteration that many
	// iterations after MaxV[CacheSize] first becomes non-empty — the §VI
	// optimisation that bounds runtime by cache size rather than dataset
	// size. Zero disables early stopping.
	EarlyStop int
	// Passes is how many times the ordered option list is iterated. The
	// first pass builds configurations; later passes only refine them via
	// relaxation, which gives high-value keys (processed first, when the
	// cache was still empty) the chance to grow at the expense of marginal
	// keys. Zero means the default of 2.
	Passes int
}

// Populate computes a cache configuration from the option set, following
// the paper's Figure 4 pseudocode. CacheSize is in chunk slots. The
// returned configuration never exceeds CacheSize.
//
// MaxV[w] holds the best configuration discovered so far with total weight
// exactly w. Each option, visited in decreasing key-value order, first
// tries to improve existing configurations without changing their weight
// (RELAX, Figure 5) and then tries to extend each configuration into a
// heavier weight class (ADDTOCONFIG).
func Populate(set *OptionSet, cacheSize int, params PopulateParams) *Config {
	if cacheSize <= 0 {
		return NewConfig()
	}
	maxV := map[int]*Config{0: NewConfig()}
	passes := params.Passes
	if passes <= 0 {
		passes = 2
	}

	ordered := set.Ordered()
	sinceFull := -1 // iterations since MaxV[cacheSize] first appeared
loop:
	for pass := 0; pass < passes; pass++ {
		for _, opt := range ordered {
			if opt.Weight > cacheSize {
				continue
			}
			// Relaxation pass: improve configurations in place, same weight.
			for _, w := range sortedWeights(maxV) {
				relax(maxV[w], opt, set)
			}
			// Addition pass: extend configurations into heavier classes.
			for _, w := range sortedWeights(maxV) {
				cfg := maxV[w]
				if _, dup := cfg.Options[opt.Key]; dup {
					continue
				}
				nw := cfg.Weight + opt.Weight
				if nw > cacheSize {
					continue
				}
				nv := cfg.Value + opt.Value
				cur, ok := maxV[nw]
				if !ok || cur.Value < nv {
					ext := cfg.Clone()
					ext.Add(opt)
					maxV[nw] = ext
				}
			}
			if params.EarlyStop > 0 {
				if sinceFull >= 0 {
					sinceFull++
					if sinceFull >= params.EarlyStop {
						break loop
					}
				} else if _, ok := maxV[cacheSize]; ok {
					sinceFull = 0
				}
			}
		}
	}

	// The paper returns MaxV[CacheSize]; if that class was never reached
	// (small option sets), fall back to the best configuration that fits.
	best := NewConfig()
	for _, w := range sortedWeights(maxV) {
		if cfg := maxV[w]; w <= cacheSize && cfg.Value > best.Value {
			best = cfg
		}
	}
	return best
}

// relax implements Figure 5: try to shrink (or totally evict) one incumbent
// option so opt fits, keeping the configuration's total weight unchanged
// and improving its value. When opt's key is already configured with a
// lighter option, the same machinery upgrades it — the incumbent for
// another key is partially evicted to free exactly the additional weight
// (the paper's "partial eviction" case).
func relax(cfg *Config, opt Option, set *OptionSet) {
	type swap struct {
		oldKey string
		repl   Option
		value  float64
	}
	var best *swap

	if incumbent, dup := cfg.Options[opt.Key]; dup {
		// Same-key upgrade: grow opt.Key from incumbent.Weight to
		// opt.Weight by shrinking one other key.
		need := opt.Weight - incumbent.Weight
		if need <= 0 {
			return
		}
		gain := opt.Value - incumbent.Value
		for oldKey, oldOpt := range cfg.Options {
			if oldKey == opt.Key {
				continue
			}
			w := oldOpt.Weight - need
			if w < 0 {
				continue
			}
			repl, ok := set.Search(oldKey, w)
			if !ok {
				continue
			}
			v := cfg.Value + gain - oldOpt.Value + repl.Value
			if v > cfg.Value && (best == nil || v > best.value ||
				(v == best.value && oldKey < best.oldKey)) {
				best = &swap{oldKey: oldKey, repl: repl, value: v}
			}
		}
		if best == nil {
			return
		}
		cfg.Replace(best.oldKey, best.repl)
		cfg.Replace(opt.Key, opt)
		return
	}

	for oldKey, oldOpt := range cfg.Options {
		w := oldOpt.Weight - opt.Weight
		if w < 0 {
			continue
		}
		repl, ok := set.Search(oldKey, w)
		if !ok {
			continue
		}
		v := cfg.Value - oldOpt.Value + repl.Value + opt.Value
		if v > cfg.Value && (best == nil || v > best.value ||
			(v == best.value && oldKey < best.oldKey)) {
			best = &swap{oldKey: oldKey, repl: repl, value: v}
		}
	}
	if best == nil {
		return
	}
	cfg.Replace(best.oldKey, best.repl)
	cfg.Add(opt)
}

func sortedWeights(maxV map[int]*Config) []int {
	out := make([]int, 0, len(maxV))
	for w := range maxV {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
