package geo

import (
	"reflect"
	"testing"
	"time"
)

// set is a chunk-index predicate over a literal set.
func set(idxs ...int) func(int) bool {
	m := make(map[int]bool, len(idxs))
	for _, idx := range idxs {
		m[idx] = true
	}
	return func(idx int) bool { return m[idx] }
}

func TestFetchPlanOrder(t *testing.T) {
	// Two chunks per latency step, as PlanFetch lays them out.
	plan := FetchPlan{
		Chunks:  []int{0, 3, 1, 4, 2, 5},
		Latency: []int64{10, 10, 20, 20, 30, 30},
	}
	cases := []struct {
		name  string
		peers map[int]time.Duration
		want  []int
	}{
		{"no peers", nil, []int{0, 3, 1, 4, 2, 5}},
		{"cheaper peer moves a chunk up", map[int]time.Duration{2: 15}, []int{0, 3, 2, 1, 4, 5}},
		{"dearer peer is ignored", map[int]time.Duration{1: 25, 0: 30}, []int{0, 3, 1, 4, 2, 5}},
		{"ties go by chunk index", map[int]time.Duration{5: 10, 4: 10}, []int{0, 3, 4, 5, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peer := func(idx int) (time.Duration, bool) {
				lat, ok := tc.peers[idx]
				return lat, ok
			}
			if got := plan.Order(peer); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Order = %v, want %v", got, tc.want)
			}
		})
	}
	if !reflect.DeepEqual(plan.Chunks, []int{0, 3, 1, 4, 2, 5}) {
		t.Fatalf("Order mutated the plan: %v", plan.Chunks)
	}
}

func TestPick(t *testing.T) {
	order := []int{0, 1, 2, 3, 4, 5}
	cases := []struct {
		name      string
		preferred func(int) bool
		usable    func(int) bool
		want      []int
	}{
		{"nearest k", set(), nil, []int{0, 1, 2}},
		{"preferred first", set(4), nil, []int{4, 0, 1}},
		{"more than k preferred keeps the nearest", set(5, 3, 1, 4), nil, []int{1, 3, 4}},
		{"usable check skips others", set(5), set(2, 3, 4), []int{5, 2, 3}},
		{"preferred bypass the usable check", set(1), set(0, 2, 3), []int{1, 0, 2}},
		{"too few usable", set(), set(2), []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Pick(order, 3, tc.preferred, tc.usable); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Pick = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNext(t *testing.T) {
	order := []int{3, 0, 4, 1, 5, 2}
	cases := []struct {
		name string
		n    int
		skip func(int) bool
		want []int
	}{
		{"first n not skipped, in order", 2, set(3, 4), []int{0, 1}},
		{"fewer than n left", 3, set(3, 0, 4, 1, 2), []int{5}},
		{"nothing left", 2, set(0, 1, 2, 3, 4, 5), nil},
		{"zero wanted", 0, set(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Next(order, tc.n, tc.skip); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Next = %v, want %v", got, tc.want)
			}
		})
	}
}
