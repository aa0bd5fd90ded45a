package main

import (
	"strings"
	"testing"
)

func TestOracleAcceptsItsOwnPayloads(t *testing.T) {
	pm := newPayloadMaker(1, 36<<10)
	p := pm.fill(make([]byte, pm.size()), 7, 3)
	if err := checkPayload(p, 7, pm.size(), 3); err != nil {
		t.Fatalf("fresh payload rejected: %v", err)
	}
	if err := checkPayload(p, 7, pm.size(), 0); err != nil {
		t.Fatalf("payload newer than required rejected: %v", err)
	}
}

func TestOracleRejects(t *testing.T) {
	pm := newPayloadMaker(1, 36<<10)
	fresh := func(key int, seq uint64) []byte { return pm.fill(make([]byte, pm.size()), key, seq) }

	corrupted := fresh(7, 3)
	corrupted[len(corrupted)/2] ^= 0x01

	// A torn object: the first half decoded from the chunks of one version,
	// the second half from another's.
	torn := fresh(7, 3)
	copy(torn[len(torn)/2:], fresh(7, 4)[len(torn)/2:])

	cases := []struct {
		name    string
		payload []byte
		key     int
		minSeq  uint64
		want    string
	}{
		{"corrupted", corrupted, 7, 3, "torn payload"},
		{"torn", torn, 7, 3, "torn payload"},
		{"truncated", fresh(7, 3)[:pm.size()-1], 7, 3, "short payload"},
		{"stale", fresh(7, 2), 7, 3, "stale payload"},
		{"wrong key", fresh(8, 3), 7, 3, "returned for key"},
		{"empty", nil, 7, 0, "short payload"},
	}
	for _, c := range cases {
		err := checkPayload(c.payload, c.key, pm.size(), c.minSeq)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestPayloadsDifferInEveryChunk(t *testing.T) {
	w, _ := workloadByName("read-small")
	pm := newPayloadMaker(1, w.ObjectBytes)
	a := pm.fill(make([]byte, pm.size()), 1, 1)
	b := pm.fill(make([]byte, pm.size()), 1, 2)
	chunk := chunkBytes(w)
	for off := 0; off < len(a); off += chunk {
		end := min(off+chunk, len(a))
		if string(a[off:end]) == string(b[off:end]) {
			t.Fatalf("chunk at offset %d is identical across versions: a torn read there would go unnoticed", off)
		}
	}
}
