package main

import (
	"bytes"
	"time"

	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/cache"
	"github.com/agardist/agar/internal/coherence"
	"github.com/agardist/agar/internal/geo"
	"github.com/agardist/agar/internal/hlc"
	"github.com/agardist/agar/internal/live"
	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/wire"
)

// probeKey is an object outside every workload's key space: probes that
// write (store put, cache invalidate) touch only it, so they cannot move a
// version floor the oracle depends on.
const probeKey = "probe-object"

// prober runs the quiescent layer probes of a traced pass: each times one
// call into one layer, many times, and reports the median. Every timed
// stretch is also a span under one "probes" root.
type prober struct {
	r      *run
	log    *spanLog
	t0     time.Time // the span clock's origin
	root   int
	budget time.Duration // per probe
}

// probe times fn for about the per-probe budget. Calls are timed in batches
// of batch (1 for calls of microseconds or more, larger for nanosecond
// calls, which a clock read would otherwise dominate); the result is the
// median per-call time in nanoseconds.
func (p *prober) probe(metric string, batch int, scale float64, fn func()) float64 {
	fn() // first call outside the sample: lazy connections, cold caches
	var perCall []float64
	deadline := time.Now().Add(p.budget)
	for len(perCall) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		end := time.Now()
		perCall = append(perCall, float64(end.Sub(start))/float64(batch))
		p.log.add(span{Parent: p.root, Op: -1, Name: "probe:" + metric, Calls: batch,
			Start: float64(start.Sub(p.t0)) / 1e3, End: float64(end.Sub(p.t0)) / 1e3})
	}
	ns := median(perCall)
	p.r.set(metric, ns/scale, len(perCall)*batch)
	return ns
}

const (
	inNS = 1
	inUS = 1e3
)

// layerProbes measures one call into each layer below the read and write
// paths, on the quiescent rig, with inputs taken from the op stream.
func (r *run) layerProbes(log *spanLog, t0 time.Time, total time.Duration) {
	const probes = 18 // p.probe calls below; each gets an equal share of the time
	p := &prober{r: r, log: log, t0: t0, budget: total / probes}
	start := time.Now()
	p.root = log.add(span{Op: -1, Name: "probes", Start: float64(start.Sub(t0)) / 1e3})
	defer func() { log.spans[p.root-1].End = float64(time.Since(t0)) / 1e3 }()

	g, c := r.g, r.g.cluster
	node := c.Node()
	// Inputs: the keys of the next operations of the stream; the cached one
	// is the first of them the node's configuration holds chunks of.
	var keys []string
	cached, cachedChunks := "", []int(nil)
	for _, o := range r.stream.next(256) {
		key := g.keys[o.Key]
		keys = append(keys, key)
		if hint := node.Manager().HintFor(key); cached == "" && len(hint.CacheChunks) > 0 {
			cached, cachedChunks = key, hint.CacheChunks
		}
	}
	next := 0
	key := func() string { next++; return keys[next%len(keys)] }

	// live round trips, one exchange each over loopback TCP.
	hinter := live.NewRemoteHinter(c.HintAddr())
	defer hinter.Close()
	p.probe("live.hint_rtt_us", 1, inUS, func() { _, _ = hinter.Hint(key()) })
	rc := live.NewRemoteCache(c.CacheAddr())
	defer rc.Close()
	if cached != "" {
		p.probe("live.cache_mget_rtt_us", 1, inUS, func() { _, _ = rc.GetMulti(cached, cachedChunks) })
	} else {
		r.set("live.cache_mget_rtt_us", 0, 0)
		r.note("no sampled key has cached chunks: live.cache_mget_rtt_us not measured")
	}
	rs := live.NewRemoteStore(c.StoreAddr(clientRegion))
	defer rs.Close()
	placement := c.Backend().Placement()
	local := func(key string) []int { return geo.ChunksIn(placement, key, codeK+codeM, clientRegion) }
	p.probe("live.store_mget_rtt_us", 1, inUS, func() { k := key(); _, _ = rs.GetMulti(k, local(k)) })
	chunk := make([]byte, chunkBytes(r.w))
	clock := hlc.New()
	p.probe("live.store_put_rtt_us", 1, inUS, func() {
		_ = rs.PutVer(backend.ChunkID{Key: probeKey, Index: 0}, chunk, uint64(clock.Now()))
	})
	p.probe("live.cache_invalidate_rtt_us", 1, inUS, func() { _ = rc.DeleteObjectVer(probeKey, uint64(clock.Now())) })

	// wire: the hint request header, and an mget reply of k chunks at this
	// workload's chunk size, through a buffer instead of a socket.
	hintReq := wire.Message{Header: wire.Header{Op: wire.OpHint, Key: keys[0],
		Trace: "00f067aa0ba902b7", Span: "53995c3f42cd8ad8", TFlags: 1}}
	hintFrame, err := wire.Encode(hintReq)
	if err != nil {
		panic(err)
	}
	p.probe("wire.header_encode_ns", 256, inNS, func() { _, _ = wire.Encode(hintReq) })
	p.probe("wire.header_decode_ns", 256, inNS, func() { _, _ = wire.Decode(hintFrame[4:]) })
	pool := wire.NewBufferPool()
	reply := wire.Message{Header: wire.Header{Op: wire.OpOK, Key: keys[0]}}
	for i := 0; i < codeK; i++ {
		reply.Header.Indices = append(reply.Header.Indices, i)
		reply.Header.Sizes = append(reply.Header.Sizes, len(chunk))
		reply.Header.Vers = append(reply.Header.Vers, uint64(clock.Now()))
		reply.Segments = append(reply.Segments, chunk)
	}
	var buf bytes.Buffer
	encode := func() { buf.Reset(); _ = wire.WriteVectored(&buf, reply, pool) }
	p.probe("wire.frame_encode_us", 1, inUS, encode)
	frame := append([]byte(nil), buf.Bytes()...)
	decode := func() {
		if m, err := wire.ReadPooled(bytes.NewReader(frame), pool); err == nil {
			m.Release()
		}
	}
	p.probe("wire.frame_decode_us", 1, inUS, decode)
	const cycles = 200
	before := readProc()
	for i := 0; i < cycles; i++ {
		encode()
		decode()
	}
	r.set("wire.allocs_per_frame", float64(readProc().since(before).mallocs)/(2*cycles), 2*cycles)

	// erasure: encode one object; decode it from the k chunks a Frankfurt
	// read fetches (the nearest by geo.PlanFetch), parity among them.
	codec := c.Backend().Codec()
	payload := g.pm.fill(make([]byte, g.pm.size()), 0, 0)
	p.probe("erasure.encode_us", 1, inUS, func() { _, _ = codec.Split(payload) })
	all, err := codec.Split(payload)
	if err != nil {
		panic(err)
	}
	plan := geo.PlanFetch(geo.DefaultMatrix(), placement, keys[0], codeK+codeM, clientRegion)
	fetched := make([][]byte, len(all))
	for _, idx := range plan.NearestK(codeK) {
		fetched[idx] = all[idx]
	}
	decodeNS := p.probe("erasure.decode_us", 1, inUS, func() { _, _ = codec.Decode(fetched) })
	r.set("erasure.decode_mb_s", float64(r.w.ObjectBytes)/(1<<20)/(decodeNS/1e9), 0)

	// cache: a private cache of the node cache's shape, full.
	nodeCache := node.Cache()
	priv := cache.NewSharded(nodeCache.Capacity(), nodeCache.ShardCount(), func() cache.Policy { return cache.NewLRU() })
	var ids []cache.EntryID
	for i := 0; i < r.w.CacheSlots; i++ {
		id := cache.EntryID{Key: g.keys[i/codeK], Index: i % codeK}
		_ = priv.PutVer(id, chunk, 1)
		ids = append(ids, id)
	}
	dst := make([]byte, 0, len(chunk))
	p.probe("cache.get_ns", 1024, inNS, func() { next++; _, _, _ = priv.GetAppendVer(ids[next%len(ids)], dst[:0]) })
	p.probe("cache.put_ns", 256, inNS, func() { next++; _ = priv.PutVer(ids[next%len(ids)], chunk, 1) })

	// core: the hint lookup behind every hint exchange.
	p.probe("core.hint_ns", 1024, inNS, func() { _ = node.Manager().HintFor(key()) })

	// backend: direct calls on the client region's store.
	st := c.Backend().Store(clientRegion)
	p.probe("backend.get_multi_us", 1, inUS, func() { k := key(); _, _, _, _ = st.GetMultiVer(k, local(k)) })
	p.probe("backend.put_ver_us", 1, inUS, func() {
		_ = st.PutVer(backend.ChunkID{Key: probeKey, Index: 1}, chunk, uint64(clock.Now()))
	})

	// hlc and coherence: expected negligible; recorded so that stays true.
	p.probe("hlc.now_ns", 4096, inNS, func() { _ = clock.Now() })
	table := coherence.NewVersionTable()
	p.probe("coherence.admit_ns", 4096, inNS, func() { _, _ = table.Admit(key(), clock.Now()) })
	r.set("coherence.table_len", float64(c.Versions().Len()), 0)
}

// histMean is the mean, in µs, of the observations a histogram family of
// seconds gained between two gathers, summed over every sample matching the
// label constraints.
func histMean(end, start []metrics.Family, family string, want map[string]string) (float64, int) {
	total := func(fams []metrics.Family) (sum float64, count uint64) {
		f, ok := metrics.SelectFamily(fams, family)
		if !ok {
			return 0, 0
		}
		for _, s := range f.Samples {
			if _, match := metrics.SelectSample(metrics.Family{Labels: f.Labels, Samples: []metrics.Sample{s}}, want); match {
				sum, count = sum+s.Sum, count+s.Count
			}
		}
		return sum, count
	}
	s1, c1 := total(end)
	s0, c0 := total(start)
	if c1 <= c0 {
		return 0, 0
	}
	return (s1 - s0) / float64(c1-c0) * 1e6, int(c1 - c0)
}

// serverDeltas reports what the program's own registry counted between
// reg0 and now: the store servers' put ops (the write path carries no trace
// context, so its server time is only visible here) and the blob adapter
// under every store.
func (r *run) serverDeltas(reg0 []metrics.Family) {
	reg1 := r.g.cluster.Registry().Gather()
	storePut := map[string]string{"server": "store", "op": wire.OpPut}
	v, n := histMean(reg1, reg0, metrics.NameServerOpQueueWait, storePut)
	r.set("live.server.queue_wait_us.store_put", v, n)
	v, n = histMean(reg1, reg0, metrics.NameServerOpExecute, storePut)
	r.set("live.server.exec_us.store_put", v, n)
	v, n = histMean(reg1, reg0, metrics.NameBlobOpSeconds, map[string]string{"op": "get_multi"})
	r.set("store.get_us", v, n)
	v, n = histMean(reg1, reg0, metrics.NameBlobOpSeconds, map[string]string{"op": "put"})
	r.set("store.put_us", v, n)
}
