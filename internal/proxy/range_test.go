package proxy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/energy"
	"presto/internal/model"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// refConfirmedBefore is the per-step shared-history lookup the range
// cursor replaced: up to limit confirmed entries with T <= t, gathered
// newest first and reversed to oldest first.
func refConfirmedBefore(s *cache.Series, t simtime.Time, limit int) []model.Record {
	if limit <= 0 {
		return nil
	}
	es := s.Range(math.MinInt64, t)
	var out []model.Record
	for i := len(es) - 1; i >= 0 && len(out) < limit; i-- {
		if es[i].Source != cache.Predicted {
			out = append(out, model.Record{T: es[i].T, V: es[i].V})
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// refAssembleRange is the per-step range assembly the cursor walk
// replaced: a binary search (Series.At) and a fresh shared history per
// slot.
func refAssembleRange(p *Proxy, st *moteState, t0, t1 simtime.Time, precision float64) ([]cache.Entry, bool) {
	step := st.sampleInterval
	if step <= 0 {
		step = simtime.Minute
	}
	var out []cache.Entry
	allGood := true
	for t := t0; t <= t1; t += step {
		if e, ok := st.series.At(t, time.Duration(step)/2); ok && e.ErrBound <= precision {
			out = append(out, e)
			continue
		}
		shared := refConfirmedBefore(st.series, t, p.cfg.SharedHistory)
		v := st.mdl.Predict(t, shared)
		out = append(out, cache.Entry{T: t, V: v, Source: cache.Predicted, ErrBound: st.delta})
		if st.delta > precision {
			allGood = false
		}
	}
	return out, allGood
}

// bareProxy is a proxy on a lossless medium with no motes attached: the
// range tests fill its caches by hand.
func bareProxy(t testing.TB) *Proxy {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sim, med, DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomModel picks one of the model families a proxy runs, with random
// parameters: history-free, last-value and multi-lag history users.
func randomModel(rng *rand.Rand, step simtime.Time) model.Model {
	switch rng.Intn(4) {
	case 0:
		return model.ConstLast{}
	case 1:
		bins := make([]float32, 1+rng.Intn(24))
		for i := range bins {
			bins[i] = float32(rng.NormFloat64())
		}
		return &model.SeasonalAnchored{
			Seasonal: model.Seasonal{Period: simtime.Day, Bins: bins, Base: 20 * rng.Float64(), Trend: rng.NormFloat64() * 1e-15},
			Alpha:    rng.Float64(),
		}
	case 2:
		coef := make([]float64, 1+rng.Intn(4))
		for i := range coef {
			coef[i] = (rng.Float64() - 0.5) / float64(len(coef))
		}
		return &model.AR{Mean: 10 * rng.Float64(), Coef: coef, Interval: step}
	default:
		return &model.Seasonal{Period: simtime.Hour, Bins: []float32{1, 2, 3}, Base: rng.Float64()}
	}
}

// recorder is an Observer that keeps what it is fed, in order.
type recorder [][2]float64

func (r *recorder) Observe(v, errBound float64) { *r = append(*r, [2]float64{v, errBound}) }

// TestAssembleRangeMatchesReference checks the cursor walk against the
// per-step reference over random caches: the same entries, the same
// allGood, rangeCovered agreeing with allGood, and FoldRange feeding
// exactly the reference entries exactly when they all meet the precision.
func TestAssembleRangeMatchesReference(t *testing.T) {
	p := bareProxy(t)
	rng := rand.New(rand.NewSource(7))
	const trials = 3000
	steps := []simtime.Time{0, 10 * simtime.Second, simtime.Minute, 5 * simtime.Minute}
	for trial := 0; trial < trials; trial++ {
		id := radio.NodeID(trial + 1)
		step := steps[rng.Intn(len(steps))]
		p.Register(id, time.Duration(step), rng.Float64()*2)
		st := p.motes[id]
		slot := rangeStep(st)
		p.cfg.SharedHistory = rng.Intn(6)
		st.mdl = randomModel(rng, slot)
		// Entries on and off the slot grid, with a mix of provenance and
		// error bounds; pulled entries carry lossy bounds.
		span := simtime.Time(20+rng.Intn(200)) * slot
		for i := rng.Intn(120); i > 0; i-- {
			tt := simtime.Time(rng.Int63n(int64(span)))
			if rng.Intn(3) > 0 {
				tt = tt / slot * slot // on the grid
			}
			e := cache.Entry{T: tt, V: 20 + rng.NormFloat64(), Source: cache.Source(rng.Intn(3))}
			switch e.Source {
			case cache.Predicted:
				e.ErrBound = st.delta
			case cache.Pulled:
				e.ErrBound = rng.Float64() * 0.5
			}
			st.series.Insert(e)
		}
		t0 := simtime.Time(rng.Int63n(int64(span)))
		if rng.Intn(2) == 0 {
			t0 = t0 / slot * slot
		}
		t1 := t0 + simtime.Time(rng.Int63n(int64(span)))
		precision := rng.Float64() * 2

		want, wantGood := refAssembleRange(p, st, t0, t1, precision)
		got, good := p.assembleRange(st, t0, t1, precision)
		if !reflect.DeepEqual(got, want) || good != wantGood {
			t.Fatalf("trial %d (step %v, history %d, %s, t0 %v, t1 %v, precision %.3f): allGood %v/%v\n got %+v\nwant %+v",
				trial, slot, p.cfg.SharedHistory, st.mdl.Name(), t0, t1, precision, good, wantGood, got, want)
		}
		if covered := p.rangeCovered(st, t0, t1, precision); covered != wantGood {
			t.Fatalf("trial %d: rangeCovered=%v, reference allGood=%v", trial, covered, wantGood)
		}
		var rec recorder
		answered := p.stats.AnswersBySource[FromCache]
		folded := p.FoldRange(id, t0, t1, precision, 0, &rec)
		if folded != wantGood {
			t.Fatalf("trial %d: FoldRange=%v, reference allGood=%v", trial, folded, wantGood)
		}
		if !folded {
			if len(rec) != 0 || p.stats.AnswersBySource[FromCache] != answered {
				t.Fatalf("trial %d: declining FoldRange observed %d entries or counted an answer", trial, len(rec))
			}
			continue
		}
		if len(rec) != len(want) {
			t.Fatalf("trial %d: folded %d entries, want %d", trial, len(rec), len(want))
		}
		for i, e := range want {
			if rec[i] != [2]float64{e.V, e.ErrBound} {
				t.Fatalf("trial %d slot %d: folded %v, want (%v, %v)", trial, i, rec[i], e.V, e.ErrBound)
			}
		}
	}
}

// TestFoldRangeHonorsFreshness checks that FoldRange declines exactly
// where QueryRangeBounded would pay a staleness rendezvous.
func TestFoldRangeHonorsFreshness(t *testing.T) {
	p := bareProxy(t)
	p.Register(1, time.Minute, 1)
	st := p.motes[1]
	st.series.Insert(cache.Entry{T: 0, V: 20, Source: cache.Pushed})
	p.sim.RunFor(3 * time.Hour)
	now := p.sim.Now()
	var rec recorder
	if p.FoldRange(1, now-simtime.Hour, now, 2, 30*time.Minute, &rec) {
		t.Fatal("stale tail folded: the freshness bound must force a rendezvous")
	}
	if !p.FoldRange(1, 0, simtime.Hour, 2, 30*time.Minute, &rec) || len(rec) != 61 {
		t.Fatalf("historical window under a bound: folded %d entries, want 61", len(rec))
	}
	if p.FoldRange(2, 0, simtime.Hour, 2, 0, &rec) || p.FoldRange(1, simtime.Hour, 0, 2, 0, &rec) {
		t.Fatal("unknown mote or inverted window folded")
	}
}

// BenchmarkAssembleRange prices one 24 h range answer over a 1-minute
// mote whose cache holds a push every ~10 minutes: the per-slot cost of
// the cursor walk and the model extrapolation between pushes.
func BenchmarkAssembleRange(b *testing.B) {
	p := bareProxy(b)
	p.Register(1, time.Minute, 0.5)
	st := p.motes[1]
	st.mdl = &model.SeasonalAnchored{
		Seasonal: model.Seasonal{Period: simtime.Day, Bins: make([]float32, 48), Base: 20},
		Alpha:    0.8,
	}
	for t := simtime.Time(0); t < 2*simtime.Day; t += 10 * simtime.Minute {
		st.series.Insert(cache.Entry{T: t, V: 20 + float64(t%7), Source: cache.Pushed})
	}
	t0, t1 := 12*simtime.Hour, 36*simtime.Hour
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, ok := p.assembleRange(st, t0, t1, 1); !ok || len(out) != 1441 {
			b.Fatalf("assembled %d entries, allGood %v", len(out), ok)
		}
	}
}
