package main

// workload is one frozen traffic mix. Sizes, skews and rates are constants:
// nothing here is calibrated at run time, so two commits always face the
// same offered load.
type workload struct {
	Name        string
	Why         string
	Objects     int
	ObjectBytes int
	CacheSlots  int     // cache capacity in chunk slots (an object is k = 9 of them)
	WriteFrac   float64 // share of operations that are whole-object updates
	Zipf        float64 // popularity exponent
	DelayScale  float64 // share of the emulated WAN delay injected (0: none)
	Rate        float64 // open-loop offered rate, ops/s
	// QuietShare is the share of a measured phase's slices the end-to-end
	// statistics are taken over, quietest first (see quiet). The CPU-bound
	// workloads offer the same traffic in every slice and keep a tenth;
	// wan-mixed changes its traffic over the window by design and
	// spends its time in sleeps, not on the CPU, so all of it counts.
	QuietShare float64
	// RotateBy shifts every popularity rank by this many places at 40 % of
	// the open-loop window; a reconfiguration is forced there and at 70 %.
	RotateBy int
}

// k and m are the erasure code of every workload, the paper's RS(9,3).
const (
	codeK = 9
	codeM = 3
)

var workloads = []workload{
	{
		Name:        "read-large",
		Why:         "paper's 1 MiB objects, working set 10x the cache: bytes dominate (erasure decode, wire body copy, GC); header codec and hint are noise",
		Objects:     200,
		ObjectBytes: 1 << 20,
		CacheSlots:  180,
		Zipf:        1.1,
		Rate:        250,
		QuietShare:  0.1,
	},
	{
		Name:        "read-small",
		Why:         "36 KiB objects, working set 10x the cache: per-message cost dominates (header codec, hint round trip, dispatch hop, per-read allocations)",
		Objects:     400,
		ObjectBytes: 36 << 10,
		CacheSlots:  360,
		Zipf:        0.9,
		Rate:        2000,
		QuietShare:  0.1,
	},
	{
		Name:        "write-heavy",
		Why:         "50/50 read/update of 256 KiB objects that all fit the cache: encode, per-region puts, version admit, invalidate and refill; a read gain paid for by writes shows here",
		Objects:     100,
		ObjectBytes: 256 << 10,
		CacheSlots:  900,
		WriteFrac:   0.5,
		Zipf:        0.9,
		Rate:        400,
		QuietShare:  0.1,
	},
	{
		Name:        "wan-mixed",
		Why:         "paper's deployment: scaled WAN delay, 90/10 mix, popularity shift plus reconfiguration under load; latency is set by which chunks are cached, not by software speed",
		Objects:     240,
		ObjectBytes: 256 << 10,
		CacheSlots:  432,
		WriteFrac:   0.1,
		Zipf:        1.1,
		DelayScale:  0.01,
		Rate:        60,
		QuietShare:  1,
		RotateBy:    80,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
