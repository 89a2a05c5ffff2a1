package store

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/index"
	"presto/internal/mote"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// refSlotCover is the callback form of the slot walk that the one-pass
// slotCover replaced: it reports coverage and emits each accepted record.
func refSlotCover(recs []Record, t0, t1, step simtime.Time, precision float64, emit func(Record)) bool {
	j := 0
	prevT := simtime.Time(-1)
	emitted := false
	for t := t0; t <= t1; t += step {
		for j < len(recs) && recs[j].T < t {
			j++
		}
		best := -1
		if j < len(recs) {
			best = j
		}
		if j > 0 && (best == -1 || t-recs[j-1].T <= recs[j].T-t) {
			best = j - 1
		}
		if best < 0 {
			return false
		}
		r := recs[best]
		gap := r.T - t
		if gap < 0 {
			gap = -gap
		}
		if gap > step/2 || r.ErrBound > precision {
			return false
		}
		if emitted && r.T == prevT {
			continue
		}
		emitted, prevT = true, r.T
		if emit != nil {
			emit(r)
		}
	}
	return true
}

// refExecuteFold is the two-pass archive fold ExecuteFold replaced: a
// coverage walk, then a second walk folding into p.
func refExecuteFold(s *Store, q query.Query, p *query.Partial) bool {
	pid, err := s.ix.ProxyFor(q.Mote)
	if err != nil {
		return false
	}
	recs, step, ok := s.archiveRecords(q, pid)
	if !ok || !refSlotCover(recs, q.T0, q.T1, step, q.Precision, nil) {
		return false
	}
	refSlotCover(recs, q.T0, q.T1, step, q.Precision, func(r Record) { p.Observe(r.V, r.ErrBound) })
	return true
}

// clonePartial deep-copies a partial, histogram included.
func clonePartial(p query.Partial) query.Partial {
	c := p
	if p.Hist != nil {
		c.Hist = make(map[int64]int, len(p.Hist))
		for k, v := range p.Hist {
			c.Hist[k] = v
		}
	}
	return c
}

// samePartial reports whether two partials are bit-identical: every
// float compared by its bits, the histogram by content.
func samePartial(a, b query.Partial) bool {
	bits := math.Float64bits
	return a.Count == b.Count && bits(a.Sum) == bits(b.Sum) && bits(a.Min) == bits(b.Min) &&
		bits(a.Max) == bits(b.Max) && bits(a.SumErr) == bits(b.SumErr) && bits(a.MaxErr) == bits(b.MaxErr) &&
		bits(a.BinWidth) == bits(b.BinWidth) && reflect.DeepEqual(a.Hist, b.Hist)
}

// archiveOnlyStore is a store over the mem backend with one attached
// proxy that manages no data: archive paths only.
func archiveOnlyStore(t testing.TB) *Store {
	t.Helper()
	sim := simtime.New(1)
	med, err := radio.NewMedium(sim, radio.DefaultConfig(), energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(sim, med, proxy.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	st := New(index.New(1))
	st.AddProxy(0, p, true)
	return st
}

// TestExecuteFoldMatchesTwoPass checks the one-pass archive fold against
// the two-pass reference over random archives and windows: the same
// decision, a bit-identical partial (Mode histogram included), a
// declining fold leaving the partial exactly as it was, and archiveAnswer
// materializing exactly the records the reference emits.
func TestExecuteFoldMatchesTwoPass(t *testing.T) {
	st := archiveOnlyStore(t)
	rng := rand.New(rand.NewSource(5))
	steps := []simtime.Time{30 * simtime.Second, simtime.Minute, 5 * simtime.Minute}
	var served, declined int
	for trial := 0; trial < 3000; trial++ {
		m := radio.NodeID(trial + 1)
		step := steps[rng.Intn(len(steps))]
		st.AdoptMote(m, 0, time.Duration(step))
		// A grid with jitter, occasional gaps and lossy bounds. An
		// unjittered grid queried half a step off it makes adjacent slots
		// share the record after a gap.
		n := 20 + rng.Intn(200)
		gapEvery := 1 + rng.Intn(400)
		jitter := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			if i%gapEvery == gapEvery-1 {
				continue
			}
			tt := simtime.Time(i) * step
			if jitter {
				tt += simtime.Time(rng.Int63n(int64(step) / 3))
			}
			rec := Record{T: tt, V: 20 + rng.NormFloat64()*3, ErrBound: rng.Float64() * 0.3 * float64(rng.Intn(2))}
			if err := st.Backend().Append(m, rec); err != nil {
				t.Fatal(err)
			}
		}
		t0 := simtime.Time(rng.Int63n(int64(n) * int64(step) / 2))
		if !jitter {
			t0 = t0/step*step + step/2
		}
		q := query.Query{
			Type: query.Agg, Mote: m, T0: t0, T1: t0 + simtime.Time(rng.Int63n(int64(n)*int64(step)/2)),
			Agg: query.AggKind(rng.Intn(4)), Precision: rng.Float64() * 0.4,
		}
		base := query.NewPartialFor(query.Spec{Type: query.Agg, Agg: q.Agg, Precision: q.Precision})
		for i := rng.Intn(5); i > 0; i-- {
			base.Observe(20+rng.NormFloat64(), rng.Float64()*0.1)
		}
		got, want := clonePartial(base), clonePartial(base)
		done, err := st.ExecuteFold(q, &got)
		if err != nil {
			t.Fatal(err)
		}
		if refDone := refExecuteFold(st, q, &want); done != refDone {
			t.Fatalf("trial %d: ExecuteFold done=%v, reference %v", trial, done, refDone)
		}
		if !samePartial(got, want) {
			t.Fatalf("trial %d (%v, done %v): partial\n got %+v\nwant %+v", trial, q.Agg, done, got, want)
		}
		if !done {
			declined++
			if !samePartial(got, base) {
				t.Fatalf("trial %d: declining fold changed the partial", trial)
			}
			continue
		}
		served++
		a, ok := st.archiveAnswer(q, 0)
		if !ok {
			t.Fatalf("trial %d: archiveAnswer declined a span ExecuteFold served", trial)
		}
		recs, step, _ := st.archiveRecords(q, 0)
		var wantEntries []cache.Entry
		refSlotCover(recs, q.T0, q.T1, step, q.Precision, func(r Record) {
			wantEntries = append(wantEntries, cache.Entry{T: r.T, V: r.V, Source: cache.Pulled, ErrBound: r.ErrBound})
		})
		if !reflect.DeepEqual(a.Entries, wantEntries) {
			t.Fatalf("trial %d: archiveAnswer entries\n got %+v\nwant %+v", trial, a.Entries, wantEntries)
		}
	}
	if served < 300 || declined < 300 {
		t.Fatalf("trials not mixed enough: %d served, %d declined", served, declined)
	}
}

// TestExecuteIntoFoldsLikeExecute replays the same AGG queries on two
// identical deployments: one through Execute with each answer folded by
// ObserveResult (the callback path), one through ExecuteInto (fold-first).
// Archive-served, cache-and-model, rendezvous and staleness-forced
// answers must leave bit-identical partials and identical routing and
// proxy counters.
func TestExecuteIntoFoldsLikeExecute(t *testing.T) {
	build := func() *oneProxyRig {
		r := newOneProxyRig(t)
		mc := mote.DefaultConfig(1, 100)
		mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 64}
		mc.Delta = 1.0
		tr := r.tr
		m, err := mote.New(r.sim, r.med, energy.DefaultParams(), mc, func(ts simtime.Time) float64 { return tr.Value(ts) })
		if err != nil {
			t.Fatal(err)
		}
		r.p.Register(1, mc.SampleInterval, mc.Delta)
		r.st.AdoptMote(1, 0, mc.SampleInterval)
		m.Start()
		r.sim.RunFor(8 * time.Hour)
		return r
	}
	ref, fold := build(), build()
	h := simtime.Hour
	queries := []query.Query{
		{T0: h, T1: 2 * h, Precision: 0.1, Agg: query.Mean},                       // rendezvous
		{T0: h, T1: 2 * h, Precision: 0.1, Agg: query.Mode},                       // archive (pulled data)
		{T0: 3 * h, T1: 5*h + 30*simtime.Second, Precision: 1.5, Agg: query.Mode}, // cache + model
		{T0: 3*h + 7*simtime.Second, T1: 6 * h, Precision: 1.0, Agg: query.Max},   // cache + model, off grid
		{T0: 7 * h, Precision: 1.5, Agg: query.Min, MaxStaleness: time.Second},    // staleness-forced pull (T1 = now)
		{T0: 2 * h, T1: 4 * h, Precision: 0.5, Agg: query.Mean},                   // partly pulled: rendezvous
	}
	for i, q := range queries {
		q.Type, q.Mote = query.Agg, 1
		if q.MaxStaleness > 0 {
			q.T1 = ref.sim.Now()
		}
		spec := query.Spec{Type: query.Agg, Agg: q.Agg, Precision: q.Precision}
		want, got := query.NewPartialFor(spec), query.NewPartialFor(spec)
		if err := ref.st.Execute(q, want.ObserveResult); err != nil {
			t.Fatal(err)
		}
		folded, err := fold.st.ExecuteInto(q, &got, got.ObserveResult)
		if err != nil {
			t.Fatal(err)
		}
		ref.sim.RunFor(time.Minute)
		fold.sim.RunFor(time.Minute)
		if !samePartial(got, want) {
			t.Fatalf("query %d (folded %v): partial\n got %+v\nwant %+v", i, folded, got, want)
		}
		if got.Count == 0 {
			t.Fatalf("query %d: nothing observed", i)
		}
		if rs, ws := fold.st.RoutingStats(), ref.st.RoutingStats(); rs != ws {
			t.Fatalf("query %d: routing stats %+v, want %+v", i, rs, ws)
		}
		if ps, ws := fold.p.Stats(), ref.p.Stats(); ps != ws {
			t.Fatalf("query %d: proxy stats %+v, want %+v", i, ps, ws)
		}
	}
	rs, ps := fold.st.RoutingStats(), fold.p.Stats()
	if rs.ArchiveServed == 0 || ps.AnswersBySource[proxy.FromCache] == 0 || ps.PullsIssued == 0 || ps.StalenessPulls == 0 {
		t.Fatalf("queries missed a path: routing %+v, proxy %+v", rs, ps)
	}
}

// BenchmarkExecuteFold prices the archive push-down of one mote's 24 h
// AGG window over the mem backend at 1-minute sampling: the scan into
// scratch, the slot walk and the fold.
func BenchmarkExecuteFold(b *testing.B) {
	st := archiveOnlyStore(b)
	st.AdoptMote(1, 0, time.Minute)
	for tt := simtime.Time(0); tt <= 2*simtime.Day; tt += simtime.Minute {
		if err := st.Backend().Append(1, Record{T: tt, V: 20 + float64(tt%997)/991, ErrBound: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
	q := query.Query{Type: query.Agg, Mote: 1, T0: 12 * simtime.Hour, T1: 36 * simtime.Hour, Agg: query.Mean, Precision: 0.5}
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := query.NewPartialFor(spec)
		if done, err := st.ExecuteFold(q, &p); err != nil || !done || p.Count != 1441 {
			b.Fatalf("fold: done=%v err=%v count=%d", done, err, p.Count)
		}
	}
}
