package live

import (
	"github.com/agardist/agar/internal/backend"
	"github.com/agardist/agar/internal/trace"
	"github.com/agardist/agar/internal/wire"
)

// The versioned exchanges of the remote adapters. Every method here sends
// the optional Ver/Vers header fields; a zero version sends the
// byte-identical legacy frame, so callers that never version pay nothing.
// An OpStale reply — the server's version floor refused the mutation —
// surfaces as *backend.StaleError carrying the floor, the same error shape
// the in-process store returns, so retry logic is transport-agnostic.

// staleFromReply converts an OpStale reply into the store-layer error.
func staleFromReply(h wire.Header) error {
	if h.Op != wire.OpStale {
		return nil
	}
	return &backend.StaleError{Cur: h.Ver}
}

// PutVer stores one chunk under a write version: refused with
// *backend.StaleError when the server's floor for the key is newer.
func (s *RemoteStore) PutVer(id backend.ChunkID, data []byte, ver uint64) error {
	resp, err := s.rc.call(wire.Message{
		Header: wire.Header{Op: wire.OpPut, Key: id.Key, Index: id.Index, Ver: ver},
		Body:   data,
	})
	if err != nil {
		return err
	}
	return staleFromReply(resp.Header)
}

// GetMultiVerCtx fetches several chunks of one key in one round trip with
// their per-chunk write versions (nil for a never-versioned key) and the
// key's floor. A sampled trace context rides the request and the server's
// span annotations come back with the chunks; the zero context sends the
// byte-identical untraced frame.
func (s *RemoteStore) GetMultiVerCtx(ctx trace.Context, key string, indices []int) (map[int][]byte, map[int]uint64, uint64, []trace.Annotation, error) {
	if len(indices) == 0 {
		return map[int][]byte{}, nil, 0, nil, nil
	}
	resp, anns, err := s.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices}})
	if err != nil {
		return nil, nil, 0, anns, err
	}
	found, err := wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
	if err != nil {
		return nil, nil, 0, anns, err
	}
	return found, versMap(resp.Header), resp.Header.Ver, anns, nil
}

// versMap folds a reply's parallel Indices/Vers arrays into a per-chunk
// version map; nil when the reply carried no versions.
func versMap(h wire.Header) map[int]uint64 {
	if h.Vers == nil {
		return nil
	}
	vers := make(map[int]uint64, len(h.Vers))
	for i, idx := range h.Indices {
		if i < len(h.Vers) {
			vers[idx] = h.Vers[i]
		}
	}
	return vers
}

// PutMultiVer inserts several chunks of one key under one write version in
// a single round trip; admitting the batch also drops any older cached
// chunks of the key server-side. Chunks the server's cache refuses
// (admission filter, full shard) are skipped without failing the batch. A
// zero version sends the unversioned insert.
func (c *RemoteCache) PutMultiVer(key string, chunks map[int][]byte, ver uint64) error {
	if len(chunks) == 0 {
		return nil
	}
	indices, sizes, body, err := wire.PackBatch(chunks)
	if err != nil {
		return err
	}
	resp, err := c.rc.call(wire.Message{
		Header: wire.Header{Op: wire.OpMPut, Key: key, Indices: indices, Sizes: sizes, Ver: ver},
		Body:   body,
	})
	if err != nil {
		return err
	}
	return staleFromReply(resp.Header)
}

// DeleteObjectVer invalidates every cached chunk of the key older than the
// version and raises the server's floor, so pre-write chunks can never be
// re-served; stale invalidations are refused.
func (c *RemoteCache) DeleteObjectVer(key string, ver uint64) error {
	resp, err := c.rc.call(wire.Message{Header: wire.Header{Op: wire.OpDelObj, Key: key, Ver: ver}})
	if err != nil {
		return err
	}
	return staleFromReply(resp.Header)
}

// GetMultiVerCtx fetches several chunks of one key in one round trip with
// their per-chunk write versions (nil when every returned chunk was a legacy
// insert), traced like RemoteStore.GetMultiVerCtx.
func (c *RemoteCache) GetMultiVerCtx(ctx trace.Context, key string, indices []int) (map[int][]byte, map[int]uint64, []trace.Annotation, error) {
	if len(indices) == 0 {
		return map[int][]byte{}, nil, nil, nil
	}
	resp, anns, err := c.rc.callCtx(ctx, wire.Message{Header: wire.Header{Op: wire.OpMGet, Key: key, Indices: indices, Region: c.origin}})
	if err != nil {
		return nil, nil, anns, err
	}
	found, err := wire.UnpackBatch(resp.Header.Indices, resp.Header.Sizes, resp.Body)
	if err != nil {
		return nil, nil, anns, err
	}
	return found, versMap(resp.Header), anns, nil
}
