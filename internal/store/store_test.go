package store

import (
	"errors"
	"math"
	"testing"
	"time"

	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/index"
	"presto/internal/mote"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// rig: two proxies (one wired, one wireless), one mote each, shared store.
type rig struct {
	sim *simtime.Simulator
	st  *Store
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(2)
	st := New(ix)
	traces, _ := gen.Temperature(gen.DefaultTempConfig())
	for pi := 0; pi < 2; pi++ {
		pid := radio.NodeID(1000 + pi)
		p, err := proxy.New(sim, med, proxy.DefaultConfig(pid))
		if err != nil {
			t.Fatal(err)
		}
		st.AddProxy(index.ProxyID(pi), p, pi == 0)
		mid := radio.NodeID(1 + pi)
		mc := mote.DefaultConfig(mid, pid)
		mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 32}
		tr := traces[0]
		m, err := mote.New(sim, med, energy.DefaultParams(), mc, func(ts simtime.Time) float64 { return tr.Value(ts) })
		if err != nil {
			t.Fatal(err)
		}
		p.Register(mid, mc.SampleInterval, mc.Delta)
		st.AdoptMote(mid, index.ProxyID(pi), mc.SampleInterval)
		m.Start()
	}
	sim.RunFor(2 * time.Hour)
	return &rig{sim: sim, st: st}
}

func TestRouting(t *testing.T) {
	r := newRig(t)
	for _, id := range []radio.NodeID{1, 2} {
		done := false
		err := r.st.Execute(query.Query{Type: query.Now, Mote: id, Precision: 2}, func(res query.Result) {
			done = true
			if res.Answer.Mote != id {
				t.Errorf("answer for wrong mote: %d", res.Answer.Mote)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		r.sim.RunFor(time.Minute)
		if !done {
			t.Fatalf("query to mote %d never completed", id)
		}
	}
	routed, replica := r.st.Stats()
	if routed != 2 || replica != 0 {
		t.Fatalf("routing stats %d/%d", routed, replica)
	}
}

func TestUnknownMote(t *testing.T) {
	r := newRig(t)
	if err := r.st.Execute(query.Query{Type: query.Now, Mote: 99}, func(query.Result) {}); err == nil {
		t.Fatal("unknown mote routed")
	}
}

func TestReplicaPreferred(t *testing.T) {
	r := newRig(t)
	// Declare proxy 0 (wired) as replica of proxy 1 (wireless): queries
	// for mote 2 now route to proxy 0. Proxy 0 does not manage mote 2,
	// so the query returns empty — what matters here is the routing
	// decision, which Stats exposes.
	if err := r.st.Index().SetReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	r.st.Execute(query.Query{Type: query.Now, Mote: 2, Precision: 2}, func(query.Result) {})
	_, replica := r.st.Stats()
	if replica != 1 {
		t.Fatalf("replica routing not used: %d", replica)
	}
}

func TestDetectionsAcrossProxies(t *testing.T) {
	r := newRig(t)
	// Both proxies publish detections; the store returns one ordered
	// stream.
	r.st.Publish(index.Detection{T: 3 * simtime.Minute, Mote: 1, Proxy: 0, Kind: "vehicle"})
	r.st.Publish(index.Detection{T: simtime.Minute, Mote: 2, Proxy: 1, Kind: "vehicle"})
	r.st.Publish(index.Detection{T: 2 * simtime.Minute, Mote: 1, Proxy: 0, Kind: "vehicle"})
	ds := r.st.Detections(0, simtime.Hour)
	if len(ds) != 3 {
		t.Fatalf("detections %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].T < ds[i-1].T {
			t.Fatal("detections out of order")
		}
	}
	if ds[0].Proxy != 1 || ds[1].Proxy != 0 {
		t.Fatal("cross-proxy interleave wrong")
	}
}

// oneProxyRig is a store over a single proxy; tests attach motes.
type oneProxyRig struct {
	sim *simtime.Simulator
	med *radio.Medium
	st  *Store
	p   *proxy.Proxy
	tr  *gen.Trace
}

func newOneProxyRig(t *testing.T) *oneProxyRig {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(sim, med, proxy.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	st := New(index.New(1))
	st.AddProxy(0, p, true)
	cfgGen := gen.DefaultTempConfig()
	cfgGen.EventsPerDay = 0
	traces, _ := gen.Temperature(cfgGen)
	return &oneProxyRig{sim: sim, med: med, st: st, p: p, tr: traces[0]}
}

// End-to-end: execute all three query types through the store against a
// real proxy+mote rig.
func TestExecuteEndToEnd(t *testing.T) {
	r := newOneProxyRig(t)
	sim, st, p, tr := r.sim, r.st, r.p, r.tr
	mc := mote.DefaultConfig(1, 100)
	mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 64}
	mc.Delta = 1.0
	m, err := mote.New(sim, r.med, energy.DefaultParams(), mc, func(ts simtime.Time) float64 { return tr.Value(ts) })
	if err != nil {
		t.Fatal(err)
	}
	p.Register(1, mc.SampleInterval, mc.Delta)
	st.AdoptMote(1, 0, mc.SampleInterval)
	m.Start()
	sim.RunFor(8 * time.Hour)

	// NOW.
	var nowRes query.Result
	gotNow := false
	if err := st.Execute(query.Query{Type: query.Now, Mote: 1, Precision: 1.5}, func(r query.Result) { nowRes = r; gotNow = true }); err != nil {
		t.Fatal(err)
	}
	if !gotNow {
		t.Fatal("NOW did not answer synchronously at loose precision")
	}
	v, ok := nowRes.Answer.Value()
	if !ok || math.Abs(v-tr.Value(sim.Now())) > 1.6 {
		t.Fatalf("NOW answer %v vs truth %v", v, tr.Value(sim.Now()))
	}

	// PAST with tight precision: requires a pull.
	var pastRes query.Result
	gotPast := false
	q := query.Query{Type: query.Past, Mote: 1, T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 0.1}
	if err := st.Execute(q, func(r query.Result) { pastRes = r; gotPast = true }); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	if !gotPast {
		t.Fatal("PAST never completed")
	}
	if len(pastRes.Answer.Entries) < 55 {
		t.Fatalf("PAST entries %d", len(pastRes.Answer.Entries))
	}
	for _, e := range pastRes.Answer.Entries {
		if math.Abs(e.V-tr.Value(e.T)) > 0.2 {
			t.Fatalf("PAST entry at %v off by %v", e.T, math.Abs(e.V-tr.Value(e.T)))
		}
	}

	// AGG mean over the same range.
	var aggRes query.Result
	gotAgg := false
	qa := query.Query{Type: query.Agg, Mote: 1, T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 0.5, Agg: query.Mean}
	if err := st.Execute(qa, func(r query.Result) { aggRes = r; gotAgg = true }); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	if !gotAgg {
		t.Fatal("AGG never completed")
	}
	var truthSum float64
	n := 0
	for tt := simtime.Hour; tt <= 2*simtime.Hour; tt += simtime.Minute {
		truthSum += tr.Value(tt)
		n++
	}
	if math.Abs(aggRes.AggValue-truthSum/float64(n)) > 0.5 {
		t.Fatalf("AGG mean %v vs truth %v", aggRes.AggValue, truthSum/float64(n))
	}

	// Invalid query errors synchronously.
	if err := st.Execute(query.Query{Type: query.Past, Mote: 1, T0: 5, T1: 1}, func(query.Result) {}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// TestExecuteFlagsEmptyAggregate pins the other half of the NaN bugfix:
// an AGG result with no entries must carry ErrEmptyAggregate instead of
// only a bare NaN. (A mote the proxy never registered, with nothing
// archived, yields an empty answer.)
func TestExecuteFlagsEmptyAggregate(t *testing.T) {
	r := newOneProxyRig(t)
	sim, st := r.sim, r.st
	st.AdoptMote(99, 0, time.Minute)
	var res query.Result
	got := false
	q := query.Query{Type: query.Agg, Mote: 99, T0: 0, T1: simtime.Hour, Agg: query.Mean, Precision: 1}
	if err := st.Execute(q, func(r query.Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	if !got {
		t.Fatal("AGG never completed")
	}
	if !errors.Is(res.Err, query.ErrEmptyAggregate) {
		t.Fatalf("empty AGG Err=%v, want ErrEmptyAggregate", res.Err)
	}
	if !math.IsNaN(res.AggValue) {
		t.Fatalf("empty AGG value %v, want NaN", res.AggValue)
	}
}
