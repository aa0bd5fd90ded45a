package main

import (
	"fmt"
	"net"

	"github.com/agardist/agar/internal/wire"
)

// runProbe drives a handful of traced ops against an already-running cache
// server — the client half of CI's tracing smoke. Every frame carries a
// trace header, so after the probe returns the server's /debug/traces
// endpoint must expose "slowest" entries whose trace IDs match the ones
// printed here. Any transport or remote error is fatal: the probe's only
// job is to make the flight recorder observably non-empty.
func runProbe(addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fatalf("probe: dial %s: %v", addr, err)
	}
	defer conn.Close()

	var seq uint64
	var first, last string
	send := func(h wire.Header, body []byte) wire.Message {
		seq++
		h.Trace = fmt.Sprintf("%016x", 0x70726f6265<<16|seq) // "probe" + seq
		if first == "" {
			first = h.Trace
		}
		last = h.Trace
		resp, err := wire.Call(conn, wire.Message{Header: h, Body: body})
		if err != nil {
			fatalf("probe: %s %s: %v", h.Op, h.Key, err)
		}
		return resp
	}

	const key = "probe-obj"
	chunks := make(map[int][]byte, 4)
	for i := 0; i < 4; i++ {
		b := make([]byte, 512)
		for j := range b {
			b[j] = byte(i)
		}
		chunks[i] = b
	}
	indices, sizes, body, err := wire.PackBatch(chunks)
	if err != nil {
		fatalf("probe: pack: %v", err)
	}
	send(wire.Header{Op: wire.OpMPut, Key: key, Indices: indices, Sizes: sizes}, body)
	for i := 0; i < 4; i++ {
		if resp := send(wire.Header{Op: wire.OpMGet, Key: key, Indices: indices}, nil); len(resp.Header.Indices) != len(indices) {
			fatalf("probe: mget %s came back with chunks %v, want %v", key, resp.Header.Indices, indices)
		}
	}
	// A miss exercises the empty-reply path under a trace as well.
	send(wire.Header{Op: wire.OpMGet, Key: "probe-missing", Indices: []int{0}}, nil)

	fmt.Printf("probe: %d traced ops against %s ok (trace ids %s..%s); scrape /debug/traces on its metrics port\n",
		seq, addr, first, last)
}
