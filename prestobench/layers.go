package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/serve"
	"presto/internal/simtime"
	"presto/internal/store"
	"presto/internal/wire"
)

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1, in BENCHMARK.json order. Layer metrics only one workload
// has (cluster lease time, join time, wire bytes by kind) are printed
// in the report but left out of the JSON line.
var layerMetrics = func() []string {
	names := []string{
		"serve.handler_us", "serve.handler_allocs", "serve.http_overhead_us", "serve.self_us",
		"serve.cache_lookup_us", "serve.cache_insert_us", "serve.cache_hit_ratio", "serve.cache_lookups",
		"query.decode_us", "query.encode_us", "query.encode_allocs", "query.response_bytes",
		"core.query_us", "core.query_allocs", "core.self_us", "core.queue_wait_us", "core.advance_us",
		"core.engine_submitted_per_query", "core.replica_served_per_query", "core.bridge_sent_per_query",
		"proxy.answers", "proxy.answers.cache_ratio", "proxy.answers.model_ratio",
		"proxy.answers.pull_ratio", "proxy.answers.timeout_ratio",
		"proxy.pulls_issued", "proxy.pull_requests", "proxy.pull_coalesced_ratio", "proxy.pulls_timed_out",
		"route.decisions",
	}
	for _, k := range obs.RouteKinds() {
		names = append(names, "route."+k.String()+"_ratio")
	}
	return append(names,
		"store.executions", "store.archive_served_ratio", "store.archive_stale", "store.replica_stale",
		"store.read_amp", "store.pages_read_per_query", "store.write_amp",
		"store.compactions", "store.wavelet_chunks", "store.dropped",
		"cluster.leases_per_chunk", "wire.bytes_per_lease", "wire.bytes_per_query",
		"obs.scrape_idle_us", "obs.scrape_load_us", "obs.scrape_bytes",
		"mote.energy_mj",
		"setup.gen_s", "setup.build_s", "setup.warm_s",
		"trace.overhead_latency_ratio", "trace.overhead_throughput_ratio",
		"oracle.bound_violation_ratio", "oracle.max_excess", "oracle.checked", "oracle.agg_unchecked",
		"agree.mismatches",
	)
}()

// Serial probe sizes.
const (
	idleProbes   = 100 // idle baselines of the probe query and the registry walk
	replayProbes = 30  // fresh questions replayed through the handler and through core
	decodeProbes = 1000
	probePeriod  = 20 * time.Millisecond // probe cadence under load
)

// flashRecBytes is the flash backend's on-flash record encoding (uint32
// mote, int64 timestamp, float32 value, float32 bound): the unit that
// store.write_amp divides programmed bytes by.
const flashRecBytes = 20

// counters is a snapshot of the deployment's own counters.
type counters struct {
	proxy      proxy.Stats
	routing    store.RoutingStats
	backend    store.BackendStats
	submitted  uint64
	replica    uint64
	bridgeSent uint64
	cache      serve.CacheStats
	leases     uint64
	sites      []cluster.ConnStats
}

func (b *bench) counters() counters {
	c := counters{
		proxy:   b.dep.net.ProxyStats(),
		routing: b.dep.net.StoreStats(),
		backend: b.dep.net.StoreBackendStats(),
		cache:   b.srv.Cache().Stats(),
	}
	c.submitted, c.replica, c.bridgeSent, _ = b.dep.net.EngineStats()
	if b.dep.co != nil {
		c.leases = b.dep.co.Leases()
		c.sites = b.dep.co.SiteStats()
	}
	return c
}

// wireBytes sums both directions of every site's traffic by frame kind.
func (c counters) wireBytes() [wire.FrameKindMax + 1]uint64 {
	var out [wire.FrameKindMax + 1]uint64
	for _, st := range c.sites {
		for k := range out {
			out[k] += st.SentKindBytes[k] + st.RecvKindBytes[k]
		}
	}
	return out
}

// probeSpec is the constant cheap question whose latency under load,
// minus its idle latency, is the queue wait in the domain workers.
var probeSpec = query.Spec{Type: query.Now, Select: query.SelectMotes(1), Precision: 100}

// probes runs beside the traced phase: the cheap probe query (its
// routes join the trace tally, so counter deltas still cover every
// query) and the registry walk under load.
type probes struct {
	b  *bench
	cl *core.Client

	mu       sync.Mutex
	queryUS  []float64
	scrapeUS []float64
	routes   []obs.Route
}

func (p *probes) once(ctx context.Context) error {
	tr := obs.NewTrace()
	t := time.Now()
	res, err := p.cl.QueryOne(obs.WithTrace(ctx, tr), probeSpec)
	us := usOf(time.Since(t).Nanoseconds())
	if err == nil && (res.Err != nil || res.Failed > 0) {
		err = fmt.Errorf("probe query failed: err=%v failed=%d", res.Err, res.Failed)
	}
	t = time.Now()
	werr := p.b.srv.Registry().WritePrometheus(io.Discard)
	sus := usOf(time.Since(t).Nanoseconds())
	p.mu.Lock()
	p.queryUS = append(p.queryUS, us)
	p.scrapeUS = append(p.scrapeUS, sus)
	p.routes = append(p.routes, tr.Routes()...)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return werr
}

func (p *probes) run(stop <-chan struct{}) {
	t := time.NewTicker(probePeriod)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if err := p.once(context.Background()); err != nil {
			fmt.Printf("note: probe: %v\n", err)
		}
	}
}

// split cuts a schedule at `at`: open-loop items due before it form the
// first part, the rest (re-based to 0) the second. A closed loop cycles
// its whole request list in both parts.
func (s schedule) split(at time.Duration, closed bool) (a, b schedule) {
	cut := func(ts []time.Duration) (x, y []time.Duration) {
		for _, t := range ts {
			if t < at {
				x = append(x, t)
			} else {
				y = append(y, t-at)
			}
		}
		return x, y
	}
	a.ingest, b.ingest = cut(s.ingest)
	a.scrapes, b.scrapes = cut(s.scrapes)
	if closed {
		a.reqs, b.reqs = s.reqs, s.reqs
		return a, b
	}
	for _, r := range s.reqs {
		if r.due < at {
			a.reqs = append(a.reqs, r)
		} else {
			r.due -= at
			b.reqs = append(b.reqs, r)
		}
	}
	return a, b
}

// tracedRun is the --trace 1 run: an untraced half, then a traced half
// with spans and explain, then serial probes around each layer's
// public calls. End-to-end numbers of the two halves give the tracing
// overhead; the JSON line carries the per-layer metrics.
func (b *bench) tracedRun(ctx context.Context, o options, s schedule, histEnd simtime.Time, rep *report) (*output, error) {
	// Both halves run the latency phase's load; the capacity phase is
	// the untraced run's alone.
	latency, _ := phases(o.workload, o.seconds)
	half := latency / 2
	closed := o.workload == hotRepeat
	first, second := s.split(half, closed)
	pr := &probes{b: b, cl: core.NewClient(b.dep.eng)}
	for i := 0; i < idleProbes; i++ {
		if err := pr.once(ctx); err != nil {
			return nil, fmt.Errorf("idle probe: %w", err)
		}
	}
	idleQuery, idleScrape := median(pr.queryUS), median(pr.scrapeUS)
	pr.queryUS, pr.scrapeUS, pr.routes = nil, nil, nil
	var scrapeBody bytes.Buffer
	if err := b.srv.Registry().WritePrometheus(&scrapeBody); err != nil {
		return nil, err
	}

	// Replies are checked after each phase, as in the untraced run; on
	// hot-repeat's untraced half the memo makes checking cheap, and the
	// traced half defers it so the overhead measured is the tracing's.
	untraced, err := b.runPhase(ctx, first, half, closed, false, !closed, nil)
	if err != nil {
		return nil, err
	}
	before := b.counters()
	b.rec.on.Store(true)
	traced, err := b.runPhase(ctx, second, half, closed, true, true, pr.run)
	b.rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	after := b.counters()
	spans := b.rec.snapshot()

	// Overhead and the span tree.
	rep.set("trace.overhead_latency_ratio", quantile(traced.lat, 0.5)/quantile(untraced.lat, 0.5)-1, "ratio",
		fmt.Sprintf("traced p50 %.4g ms vs untraced %.4g ms", quantile(traced.lat, 0.5), quantile(untraced.lat, 0.5)))
	rep.set("trace.overhead_throughput_ratio",
		(float64(traced.answered())/traced.seconds)/(float64(untraced.answered())/untraced.seconds)-1, "ratio", "traced over untraced answered/s, minus 1")
	self := selfTimes(spans)
	rep.set("serve.http_overhead_us", median(self["http.roundtrip"]), "us",
		fmt.Sprintf("client round trip minus handler, n=%d", len(self["http.roundtrip"])))
	rep.set("serve.self_us", median(self["serve.handler"]), "us",
		fmt.Sprintf("handler minus engine: decode, admission, cache, encode, n=%d", len(self["serve.handler"])))
	rep.set("core.self_us", median(self["core.query"]), "us",
		fmt.Sprintf("SubmitSpec to result, n=%d (serve-cache misses only)", len(self["core.query"])))

	if err := b.serialProbes(ctx, o, second.reqs, traced, histEnd, rep); err != nil {
		return nil, err
	}
	rep.set("core.queue_wait_us", median(pr.queryUS)-idleQuery, "us",
		fmt.Sprintf("probe p50 under load %.4g us minus idle %.4g us, n=%d", median(pr.queryUS), idleQuery, len(pr.queryUS)))
	rep.set("obs.scrape_idle_us", idleScrape, "us", fmt.Sprintf("Registry.WritePrometheus, n=%d", idleProbes))
	rep.set("obs.scrape_load_us", median(pr.scrapeUS), "us", fmt.Sprintf("during the traced phase, n=%d", len(pr.scrapeUS)))
	rep.set("obs.scrape_bytes", float64(scrapeBody.Len()), "bytes", "one exposition")

	queries := float64(traced.queries)
	layerCounters(rep, before, after, queries, len(traced.ingest))
	routes := append(append([]obs.Route(nil), traced.chk.routes...), pr.routes...)
	routeMix(rep, routes)
	mismatches := agreement(routes, before, after)
	rep.set("agree.mismatches", float64(mismatches), "count", "trace route classes disagreeing with counter deltas")

	e := b.dep.net.TotalMoteEnergy()
	rep.set("mote.energy_mj", e.Total()*1000, "mJ", "all motes hosted in this process, whole run")
	tl := b.orc.snapshot()
	rep.set("oracle.bound_violation_ratio", tl.violationRatio(), "ratio", fmt.Sprintf("%d of %d", tl.Violations, tl.Checked))
	rep.set("oracle.max_excess", tl.MaxExcess, "value", "largest |V-truth|-ErrBound")
	rep.set("oracle.checked", float64(tl.Checked), "count", "")
	rep.set("oracle.agg_unchecked", float64(tl.AggUnchecked), "count", "aggregates the oracle could not pin")

	if b.dep.co != nil {
		rep.set("cluster.lease_us", median(traced.lease)*1000, "us",
			fmt.Sprintf("Coordinator.Run per chunk without lateness, n=%d; live-ingest only", len(traced.lease)))
	}

	rep.print("per-layer (traced run):", layerMetrics)
	printOracle(tl)
	printValidity("traced half", o.workload, traced, true)
	fmt.Printf("cache states of traced requests: %v\n", traced.chk.cache)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)

	out := verdict(tl, untraced, traced)
	if out.Metrics, err = rep.pick(layerMetrics); err != nil {
		return nil, err
	}
	return out, nil
}

// serialProbes times the serve, query and core public calls one at a
// time, outside any load.
func (b *bench) serialProbes(ctx context.Context, o options, reqs []request, traced *phase, histEnd simtime.Time, rep *report) error {
	// Decode and cache lookups over the traced phase's requests.
	var decode, lookup []float64
	now := b.dep.eng.Now()
	var specs []query.Spec
	for i := 0; i < len(reqs) && len(specs) < decodeProbes; i++ {
		t := time.Now()
		spec, err := query.DecodeSpecJSON(reqs[i].body)
		decode = append(decode, usOf(time.Since(t).Nanoseconds()))
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		t := time.Now()
		b.srv.Cache().Lookup(spec, now)
		lookup = append(lookup, usOf(time.Since(t).Nanoseconds()))
	}
	rep.set("query.decode_us", median(decode), "us", fmt.Sprintf("DecodeSpecJSON, n=%d", len(decode)))
	rep.set("serve.cache_lookup_us", median(lookup), "us", fmt.Sprintf("AnswerCache.Lookup, n=%d", len(lookup)))

	// Encode and insert over the traced answers.
	var encode, insert []float64
	var sizes float64
	allocs := allocsOf(func() {
		for _, k := range traced.chk.kept {
			t := time.Now()
			buf, err := query.EncodeSetResultJSON(k.res)
			encode = append(encode, usOf(time.Since(t).Nanoseconds()))
			if err == nil {
				sizes += float64(len(buf))
			}
		}
	})
	n := float64(len(traced.chk.kept))
	for _, k := range traced.chk.kept {
		t := time.Now()
		b.srv.Cache().Insert(k.r.spec, k.res)
		insert = append(insert, usOf(time.Since(t).Nanoseconds()))
	}
	rep.set("query.encode_us", median(encode), "us", fmt.Sprintf("EncodeSetResultJSON, n=%d", len(encode)))
	rep.set("query.encode_allocs", ratio(float64(allocs), n), "allocs", "per call")
	rep.set("query.response_bytes", ratio(sizes, n), "bytes", "mean encoded answer")
	rep.set("serve.cache_insert_us", median(insert), "us", fmt.Sprintf("AnswerCache.Insert, n=%d", len(insert)))

	// The handler with no client or socket, and core directly, each on
	// its own fresh questions.
	fresh, err := replaySet(o.workload, o.seed, 2*replayProbes, histEnd)
	if err != nil {
		return err
	}
	handler := b.srv.Handler()
	var hUS, hAllocs, cUS, cAllocs []float64
	for _, r := range fresh[:len(fresh)/2] {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(r.body))
		req.Header.Set("X-Presto-Tenant", r.tenant)
		rr := httptest.NewRecorder()
		var d time.Duration
		a := allocsOf(func() {
			t := time.Now()
			handler.ServeHTTP(rr, req)
			d = time.Since(t)
		})
		if rr.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d: %s", rr.Code, rr.Body.String())
		}
		hUS = append(hUS, usOf(d.Nanoseconds()))
		hAllocs = append(hAllocs, float64(a))
	}
	cl := core.NewClient(b.dep.eng)
	for _, r := range fresh[len(fresh)/2:] {
		var d time.Duration
		var qerr error
		a := allocsOf(func() {
			t := time.Now()
			_, qerr = cl.QueryOne(ctx, r.spec)
			d = time.Since(t)
		})
		if qerr != nil {
			return fmt.Errorf("core probe: %w", qerr)
		}
		cUS = append(cUS, usOf(d.Nanoseconds()))
		cAllocs = append(cAllocs, float64(a))
	}
	rep.set("serve.handler_us", median(hUS), "us", fmt.Sprintf("Handler().ServeHTTP into a recorder, n=%d fresh questions", len(hUS)))
	rep.set("serve.handler_allocs", median(hAllocs), "allocs", "per call, MemStats delta")
	rep.set("core.query_us", median(cUS), "us", fmt.Sprintf("Client.QueryOne, n=%d fresh questions", len(cUS)))
	rep.set("core.query_allocs", median(cAllocs), "allocs", "per call, MemStats delta (engine workers included)")
	return nil
}

// allocsOf counts heap allocations made while fn runs (process-wide).
func allocsOf(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// layerCounters books the counter deltas of the traced phase.
func layerCounters(rep *report, a, b counters, queries float64, chunks int) {
	rep.set("serve.cache_lookups", float64(b.cache.Hits+b.cache.Misses-a.cache.Hits-a.cache.Misses), "count", "base of serve.cache_hit_ratio")
	rep.set("serve.cache_hit_ratio", ratio(float64(b.cache.Hits-a.cache.Hits), float64(b.cache.Hits+b.cache.Misses-a.cache.Hits-a.cache.Misses)), "ratio", "AnswerCache.Stats, traced phase")
	rep.set("core.engine_submitted_per_query", ratio(float64(b.submitted-a.submitted), queries), "count", "EngineStats, per traced query")
	rep.set("core.replica_served_per_query", ratio(float64(b.replica-a.replica), queries), "count", "")
	rep.set("core.bridge_sent_per_query", ratio(float64(b.bridgeSent-a.bridgeSent), queries), "count", "")

	answers := float64(b.proxy.QueriesAnswered - a.proxy.QueriesAnswered)
	rep.set("proxy.answers", answers, "count", "ProxyStats delta, base of proxy.answers.*")
	for _, src := range []proxy.Source{proxy.FromCache, proxy.FromModel, proxy.FromPull, proxy.FromTimeout} {
		n := float64(b.proxy.AnswersBySource[src] - a.proxy.AnswersBySource[src])
		rep.set("proxy.answers."+src.String()+"_ratio", ratio(n, answers), "ratio", fmt.Sprintf("%.0f answers", n))
	}
	issued := float64(b.proxy.PullsIssued - a.proxy.PullsIssued)
	coalesced := float64(b.proxy.PullsCoalesced - a.proxy.PullsCoalesced)
	rep.set("proxy.pulls_issued", issued, "count", "")
	rep.set("proxy.pull_requests", issued+coalesced, "count", "issued + coalesced, base of the coalesced ratio")
	rep.set("proxy.pull_coalesced_ratio", ratio(coalesced, issued+coalesced), "ratio", "")
	rep.set("proxy.pulls_timed_out", float64(b.proxy.PullsTimedOut-a.proxy.PullsTimedOut), "count", "")

	execs := float64(b.routing.Routed + b.routing.ArchiveServed - a.routing.Routed - a.routing.ArchiveServed)
	rep.set("store.executions", execs, "count", "per-mote executions reaching the archive or a managing proxy")
	rep.set("store.archive_served_ratio", ratio(float64(b.routing.ArchiveServed-a.routing.ArchiveServed), execs), "ratio", "")
	rep.set("store.archive_stale", float64(b.routing.ArchiveStale-a.routing.ArchiveStale), "count", "")
	rep.set("store.replica_stale", float64(b.routing.ReplicaStale-a.routing.ReplicaStale), "count", "")
	scanned := float64(b.backend.RecordsScanned - a.backend.RecordsScanned)
	matched := float64(b.backend.RecordsMatched - a.backend.RecordsMatched)
	rep.set("store.read_amp", ratio(scanned, matched), "ratio", fmt.Sprintf("%.0f scanned / %.0f matched", scanned, matched))
	rep.set("store.pages_read_per_query", ratio(float64(b.backend.PagesRead-a.backend.PagesRead), queries), "count", "")
	appends := float64(b.backend.Appends - a.backend.Appends)
	written := float64(b.backend.PagesWritten-a.backend.PagesWritten) * float64(ingestFlash.PageSize)
	rep.set("store.write_amp", ratio(written, appends*flashRecBytes), "ratio",
		fmt.Sprintf("flash bytes programmed / %.0f appended records x %d B", appends, flashRecBytes))
	rep.set("store.compactions", float64(b.backend.Compactions-a.backend.Compactions), "count", "")
	rep.set("store.wavelet_chunks", float64(b.backend.WaveletChunks-a.backend.WaveletChunks), "count", "")
	rep.set("store.dropped", float64(b.backend.Dropped-a.backend.Dropped), "count", "")

	leases := float64(b.leases - a.leases)
	rep.set("cluster.leases_per_chunk", ratio(leases, float64(chunks)), "count", fmt.Sprintf("%.0f leases over %d chunks", leases, chunks))
	wa, wb := a.wireBytes(), b.wireBytes()
	kindBytes := func(kinds ...wire.FrameKind) float64 {
		var n uint64
		for _, k := range kinds {
			n += wb[k] - wa[k]
		}
		return float64(n)
	}
	rep.set("wire.bytes_per_lease", ratio(kindBytes(wire.FrameAdvance, wire.FrameAdvanceAck), leases), "bytes", "advance + ack frames, both directions")
	rep.set("wire.bytes_per_query", ratio(kindBytes(wire.FrameScatter, wire.FramePartials, wire.FrameScatterBatch, wire.FramePartialsBatch), queries), "bytes", "scatter + partials frames, both directions")
	for k := wire.FrameKind(1); k <= wire.FrameKindMax; k++ {
		if d := kindBytes(k); d > 0 {
			rep.set("wire."+k.String()+".bytes_per_query", ratio(d, queries), "bytes", "by frame kind; live-ingest only")
			rep.set("wire."+k.String()+".bytes_per_lease", ratio(d, leases), "bytes", "by frame kind; live-ingest only")
		}
	}
}

// routeMix books the share of each routing decision over the traced
// requests' explain output (and the probe queries).
func routeMix(rep *report, routes []obs.Route) {
	counts := map[obs.RouteKind]int{}
	for _, r := range routes {
		counts[r.Kind]++
	}
	total := float64(len(routes))
	rep.set("route.decisions", total, "count", "per-mote decisions from ?explain=1, base of route.*")
	for _, k := range obs.RouteKinds() {
		rep.set("route."+k.String()+"_ratio", ratio(float64(counts[k]), total), "ratio", fmt.Sprintf("%d decisions", counts[k]))
	}
}

// agreement compares the traced requests' routing decisions made in
// this process (site 0) with the counter deltas over the same window
// and prints every class; a mismatch is a finding, not something to
// reconcile here. Replica QueryLocal answers count in the proxies'
// cache/model/spatial counters, so those classes compare as one group.
func agreement(routes []obs.Route, a, b counters) int {
	local := map[obs.RouteKind]uint64{}
	for _, r := range routes {
		if r.Site == 0 {
			local[r.Kind]++
		}
	}
	src := func(ss ...proxy.Source) uint64 {
		var n uint64
		for _, s := range ss {
			n += b.proxy.AnswersBySource[s] - a.proxy.AnswersBySource[s]
		}
		return n
	}
	rows := []struct {
		name           string
		traced, counts uint64
		formula        string
	}{
		{"cache+model+replica+spatial",
			local[obs.RouteCacheHit] + local[obs.RouteModelHit] + local[obs.RouteReplicaHit] + local[obs.RouteSpatial],
			src(proxy.FromCache, proxy.FromModel, proxy.FromSpatial), "ProxyStats answers from cache+model+spatial"},
		{"rendezvous", local[obs.RouteRendezvous], src(proxy.FromPull), "ProxyStats answers from pull"},
		{"timeout", local[obs.RouteTimeout], src(proxy.FromTimeout), "ProxyStats answers from timeout"},
		{"archive-hit", local[obs.RouteArchiveHit], b.routing.ArchiveServed - a.routing.ArchiveServed, "StoreStats.ArchiveServed"},
		{"stale-bypass", local[obs.RouteStaleBypass],
			b.routing.ReplicaStale + b.routing.ArchiveStale - a.routing.ReplicaStale - a.routing.ArchiveStale,
			"StoreStats.ReplicaStale+ArchiveStale"},
	}
	mismatches := 0
	fmt.Println("traces vs counters (decisions made in this process, traced phase):")
	for _, r := range rows {
		verdict := "agree"
		if r.traced != r.counts {
			verdict = "MISMATCH"
			mismatches++
		}
		fmt.Printf("  %-28s traced %8d  counters %8d  %-8s (%s)\n", r.name, r.traced, r.counts, verdict, r.formula)
	}
	return mismatches
}
