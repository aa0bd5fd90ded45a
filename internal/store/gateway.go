package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/agardist/agar/internal/metrics"
	"github.com/agardist/agar/internal/wire"
)

// Gateway HTTP surface (served by cmd/blob-server, spoken by the Remote
// adapter). One chunk object per URL, S3-style:
//
//	PUT    /v1/<bucket>/<key>/<chunk>            store a chunk (body = payload)
//	GET    /v1/<bucket>/<key>/<chunk>            fetch a chunk (404 when absent)
//	DELETE /v1/<bucket>/<key>/<chunk>            delete a chunk -> {"deleted":bool}
//	GET    /v1/<bucket>/<key>?indices=0,2,5      batch fetch -> X-Agar-Indices /
//	                                             X-Agar-Sizes headers + raw body
//	DELETE /v1/<bucket>/<key>                    delete an object -> {"deleted":n}
//	GET    /v1/<bucket>                          list keys -> {"keys":[...]}
//	GET    /v1/<bucket>?stats=1                  bucket stats -> {"chunks":n,"bytes":n}
//
// Object keys travel path-escaped; chunk payloads travel as raw bodies.

// Batch response headers: the chunk indices present and their byte sizes,
// comma-separated, framing the concatenated body exactly like the TCP
// protocol's mget batches.
const (
	HeaderBatchIndices = "X-Agar-Indices"
	HeaderBatchSizes   = "X-Agar-Sizes"
)

// maxChunkBody bounds one uploaded chunk, mirroring wire.MaxFrame.
const maxChunkBody = 16 << 20

// NewGateway serves the blob store over the HTTP surface above.
func NewGateway(bs BlobStore) http.Handler { return NewGatewayWith(bs, nil) }

// NewGatewayWith is NewGateway with request accounting: when reg is
// non-nil every route counts into agar_http_requests_total{op,code} and
// the agar_http_in_flight gauge tracks concurrently served requests. A
// nil registry serves the same routes uninstrumented.
func NewGatewayWith(bs BlobStore, reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	g := &gateway{bs: bs}
	wrap := func(op string, h http.HandlerFunc) http.HandlerFunc { return h }
	if reg != nil {
		requests := reg.NewCounterVec(metrics.NameHTTPRequests,
			"Gateway HTTP requests served, by route op and status code.", "op", "code")
		inFlight := reg.NewGauge(metrics.NameHTTPInFlight,
			"Gateway HTTP requests currently being served.")
		wrap = func(op string, h http.HandlerFunc) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
				h(sw, r)
				requests.With(op, strconv.Itoa(sw.code)).Inc()
			}
		}
	}
	mux.HandleFunc("GET /v1/{bucket}", wrap("list", g.bucket))
	mux.HandleFunc("GET /v1/{bucket}/{key}", wrap("get_batch", g.getBatch))
	mux.HandleFunc("DELETE /v1/{bucket}/{key}", wrap("delete_object", g.deleteObject))
	mux.HandleFunc("GET /v1/{bucket}/{key}/{chunk}", wrap("get_chunk", g.getChunk))
	mux.HandleFunc("PUT /v1/{bucket}/{key}/{chunk}", wrap("put_chunk", g.putChunk))
	mux.HandleFunc("DELETE /v1/{bucket}/{key}/{chunk}", wrap("delete_chunk", g.deleteChunk))
	return mux
}

// statusWriter captures the response code a handler commits to; a body
// written without an explicit WriteHeader counts as the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

type gateway struct{ bs BlobStore }

// fail maps adapter errors onto HTTP statuses.
func fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrInjected):
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// chunkID resolves the request's key and chunk index path segments.
func chunkID(r *http.Request) (ChunkID, error) {
	idx, err := strconv.Atoi(r.PathValue("chunk"))
	if err != nil || idx < 0 {
		return ChunkID{}, fmt.Errorf("store: bad chunk index %q", r.PathValue("chunk"))
	}
	return ChunkID{Key: r.PathValue("key"), Index: idx}, nil
}

func (g *gateway) bucket(w http.ResponseWriter, r *http.Request) {
	bucket := r.PathValue("bucket")
	if r.URL.Query().Get("stats") != "" {
		st, err := g.bs.Stats(r.Context(), bucket)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, st)
		return
	}
	keys, err := g.bs.List(r.Context(), bucket)
	if err != nil {
		fail(w, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, map[string][]string{"keys": keys})
}

func (g *gateway) getChunk(w http.ResponseWriter, r *http.Request) {
	id, err := chunkID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	data, err := g.bs.GetChunk(r.Context(), r.PathValue("bucket"), id)
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (g *gateway) putChunk(w http.ResponseWriter, r *http.Request) {
	id, err := chunkID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxChunkBody))
	if err != nil {
		http.Error(w, fmt.Sprintf("store: read body: %v", err), http.StatusBadRequest)
		return
	}
	if err := g.bs.PutChunk(r.Context(), r.PathValue("bucket"), id, data); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *gateway) deleteChunk(w http.ResponseWriter, r *http.Request) {
	id, err := chunkID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ok, err := g.bs.DeleteChunk(r.Context(), r.PathValue("bucket"), id)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, map[string]bool{"deleted": ok})
}

func (g *gateway) deleteObject(w http.ResponseWriter, r *http.Request) {
	n, err := g.bs.DeleteObject(r.Context(), r.PathValue("bucket"), r.PathValue("key"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, map[string]int{"deleted": n})
}

// getBatch serves a multi-chunk fetch: ?indices=0,2,5 returns whichever of
// those chunks exist, framed by the batch headers over a concatenated body.
func (g *gateway) getBatch(w http.ResponseWriter, r *http.Request) {
	indices, err := parseIndices(r.URL.Query().Get("indices"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	found, err := g.bs.GetChunks(r.Context(), r.PathValue("bucket"), r.PathValue("key"), indices)
	if err != nil {
		fail(w, err)
		return
	}
	if len(found) == 0 {
		w.WriteHeader(http.StatusOK)
		return
	}
	idxs, sizes, body, err := wire.PackBatch(found)
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set(HeaderBatchIndices, joinInts(idxs))
	w.Header().Set(HeaderBatchSizes, joinInts(sizes))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// parseIndices parses a comma-separated chunk index list, bounded like the
// TCP batch ops.
func parseIndices(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("store: batch fetch needs ?indices=")
	}
	parts := strings.Split(s, ",")
	if len(parts) > wire.MaxBatchChunks {
		return nil, fmt.Errorf("store: batch of %d chunks exceeds limit %d", len(parts), wire.MaxBatchChunks)
	}
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		idx, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("store: bad chunk index %q", p)
		}
		out = append(out, idx)
	}
	return out, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// splitInts is joinInts' inverse; empty input yields nil.
func splitInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		x, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("store: bad batch header %q", s)
		}
		out[i] = x
	}
	return out, nil
}
