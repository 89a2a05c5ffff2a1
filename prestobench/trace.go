package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/serve"
)

// spanHeader carries "<request id>/<parent span id>" from the load
// client to the handler wrapper.
const spanHeader = "X-Bench-Span"

// spanRecord is one recorded span: name, start and end (nanoseconds
// since the recorder started), its parent, and the request it belongs
// to. Spans of one request share Req.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Recording is on
// only during the traced phase; begin on a nil or idle recorder returns
// an inert span.
type recorder struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is an open span; end records it.
type span struct {
	r         *recorder
	id, req   uint64
	parent    uint64
	name      string
	startTime int64
}

// begin opens a span. req 0 starts a new request.
func (r *recorder) begin(req, parent uint64, name string) span {
	if r == nil || !r.on.Load() {
		return span{}
	}
	id := r.ids.Add(1)
	if req == 0 {
		req = id
	}
	return span{r: r, id: id, req: req, parent: parent, name: name, startTime: time.Since(r.t0).Nanoseconds()}
}

func (s span) end() {
	if s.r == nil {
		return
	}
	rec := spanRecord{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name, Start: s.startTime, End: time.Since(s.r.t0).Nanoseconds()}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
}

// spanRef is the open span a context carries into the engine wrapper.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

// wrapHandler records a serve.handler span around Server.Handler's
// ServeHTTP, parented on the client's round-trip span.
func (r *recorder) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var ref spanRef
		if v := req.Header.Get(spanHeader); v != "" {
			a, b, _ := strings.Cut(v, "/")
			ref.req, _ = strconv.ParseUint(a, 10, 64)
			ref.id, _ = strconv.ParseUint(b, 10, 64)
		}
		sp := r.begin(ref.req, ref.id, "serve.handler")
		if sp.r != nil {
			req = req.WithContext(context.WithValue(req.Context(), spanKey{}, spanRef{req: sp.req, id: sp.id}))
		}
		h.ServeHTTP(w, req)
		sp.end()
	})
}

// tracedEngine records a core.query span around the engine's SubmitSpec,
// from submission until the round's result is delivered.
type tracedEngine struct {
	serve.Engine
	rec *recorder
}

func (e tracedEngine) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	sp := e.rec.begin(ref.req, ref.id, "core.query")
	if sp.r == nil {
		return e.Engine.SubmitSpec(ctx, spec)
	}
	in, err := e.Engine.SubmitSpec(ctx, spec)
	if err != nil {
		sp.end()
		return nil, err
	}
	out := make(chan query.SetResult, 1)
	go func() {
		defer close(out)
		for res := range in {
			sp.end()
			select {
			case out <- res:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// RegisterMetrics forwards the engine's series into the server registry.
func (e tracedEngine) RegisterMetrics(reg *obs.Registry) {
	if ms, ok := e.Engine.(serve.MetricsSource); ok {
		ms.RegisterMetrics(reg)
	}
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans...)
}

// selfTimes returns each span name's self times in microseconds: the
// span's duration minus the part of it its children cover.
func selfTimes(spans []spanRecord) map[string][]float64 {
	children := map[uint64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		out[s.Name] = append(out[s.Name], usOf(s.End-s.Start-covered))
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent.
func coveredNS(parent spanRecord, kids []spanRecord) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []spanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
