package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// oracle checks answers against the deployment's ground truth with no
// slack: an entry violates its contract when |V - truth| > ErrBound,
// however small the excess. NOW and PAST entries are checked at their
// own instants; an AGG answer is checked against the same aggregate over
// every target mote's sample grid in the window (T0, T0+step, ... <= T1,
// step being the mote's sample interval). That grid starts at T0 even
// when T0 is off the instants the mote samples at: it is how the proxies
// assemble an AGG's observations (proxy.assembleRange), so it is the set
// of observations the answer's Count and ErrBound speak for. An AGG
// whose observation count
// does not match that grid, or whose operator has no exact ground truth
// (mode), cannot be pinned and is counted as unchecked instead.
//
// Malformed answers — a selected mote missing from a complete round, an
// entry outside the asked window, a mote nobody asked about, a NaN value
// — are problems, reported separately from bound violations.
type oracle struct {
	truth    func(radio.NodeID, simtime.Time) float64
	interval func(radio.NodeID) time.Duration
	all      []radio.NodeID

	mu sync.Mutex
	t  tally
}

// sourceTally counts checked answers and violations for one answer
// source (a proxy.Source name, or "agg" for merged aggregates).
type sourceTally struct {
	Checked    uint64
	Violations uint64
	MaxExcess  float64
}

// tally is the oracle's running account.
type tally struct {
	Checked      uint64 // NOW/PAST entries plus pinned AGG answers
	Violations   uint64
	AggUnchecked uint64
	MaxExcess    float64
	BySource     map[string]*sourceTally
	Problems     uint64
	FirstProblem string
}

func newOracle(truth func(radio.NodeID, simtime.Time) float64, interval func(radio.NodeID) time.Duration, all []radio.NodeID) *oracle {
	return &oracle{truth: truth, interval: interval, all: all, t: tally{BySource: map[string]*sourceTally{}}}
}

// violationRatio is violations over checked entries.
func (t tally) violationRatio() float64 { return ratio(float64(t.Violations), float64(t.Checked)) }

// snapshot copies the tally.
func (o *oracle) snapshot() tally {
	o.mu.Lock()
	defer o.mu.Unlock()
	cp := o.t
	cp.BySource = make(map[string]*sourceTally, len(o.t.BySource))
	for k, v := range o.t.BySource {
		s := *v
		cp.BySource[k] = &s
	}
	return cp
}

// observe books one checked value.
func (t *tally) observe(source string, v, truth, bound float64) {
	t.Checked++
	st := t.BySource[source]
	if st == nil {
		st = &sourceTally{}
		t.BySource[source] = st
	}
	st.Checked++
	excess := math.Abs(v-truth) - bound
	if excess > 0 {
		t.Violations++
		st.Violations++
		t.MaxExcess = math.Max(t.MaxExcess, excess)
		st.MaxExcess = math.Max(st.MaxExcess, excess)
	}
}

func (t *tally) problem(format string, args ...any) {
	t.Problems++
	if t.FirstProblem == "" {
		t.FirstProblem = fmt.Sprintf(format, args...)
	}
}

// window resolves the absolute [t0, t1] a Past/Agg spec was answered
// over. A trailing window is pinned at the round's merge instant, which
// is also its binding instant while no domain runs ahead; if a domain
// did, the grid count will not match and the answer stays unchecked.
func window(spec query.Spec, at simtime.Time) (t0, t1 simtime.Time) {
	if spec.Trailing > 0 {
		t0 = at - simtime.Time(spec.Trailing)
		if t0 < 0 {
			t0 = 0
		}
		return t0, at
	}
	return spec.T0, spec.T1
}

// check books one successful answer. Failed rounds (Err, Failed or
// SiteErrs set) are the caller's to count; check only sees what the
// program claimed to answer.
func (o *oracle) check(spec query.Spec, res query.SetResult) {
	targets := spec.Select.Motes
	if len(targets) == 0 {
		targets = o.all
	}
	if spec.Type == query.Agg {
		o.checkAgg(spec, res, targets)
		return
	}
	want := make(map[radio.NodeID]bool, len(targets))
	for _, m := range targets {
		want[m] = true
	}
	t0, t1 := window(spec, res.At)
	// Tally this answer on its own, so answers can be checked in
	// parallel, and fold it in at the end.
	tl := tally{BySource: map[string]*sourceTally{}}
	seen := 0
	for _, r := range res.Results {
		m := r.Query.Mote
		if !want[m] {
			tl.problem("%v answer for unasked mote %d", spec.Type, m)
			continue
		}
		seen++
		src := r.Answer.Source.String()
		for _, e := range r.Answer.Entries {
			if math.IsNaN(e.V) {
				tl.problem("%v answer for mote %d has a NaN entry at %v", spec.Type, m, e.T)
				continue
			}
			if spec.Type == query.Past && spec.Trailing == 0 && (e.T < t0 || e.T > t1) {
				tl.problem("past answer for mote %d has entry %v outside [%v, %v]", m, e.T, t0, t1)
				continue
			}
			tl.observe(src, e.V, o.truth(m, e.T), e.ErrBound)
		}
	}
	if res.Failed == 0 && seen != len(want) {
		tl.problem("%v answer covers %d of %d motes with none failed", spec.Type, seen, len(want))
	}
	o.mu.Lock()
	o.t.add(tl)
	o.mu.Unlock()
}

// add folds another tally into t.
func (t *tally) add(u tally) {
	t.Checked += u.Checked
	t.Violations += u.Violations
	t.AggUnchecked += u.AggUnchecked
	t.MaxExcess = math.Max(t.MaxExcess, u.MaxExcess)
	for src, us := range u.BySource {
		st := t.BySource[src]
		if st == nil {
			st = &sourceTally{}
			t.BySource[src] = st
		}
		st.Checked += us.Checked
		st.Violations += us.Violations
		st.MaxExcess = math.Max(st.MaxExcess, us.MaxExcess)
	}
	t.Problems += u.Problems
	if t.FirstProblem == "" {
		t.FirstProblem = u.FirstProblem
	}
}

// checkAgg pins an aggregate to its ground truth over the sample grid.
func (o *oracle) checkAgg(spec query.Spec, res query.SetResult, targets []radio.NodeID) {
	t0, t1 := window(spec, res.At)
	count := 0
	sum := 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range targets {
		step := simtime.Time(o.interval(m))
		for t := t0; t <= t1; t += step {
			v := o.truth(m, t)
			count++
			sum += v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if math.IsNaN(res.Value) {
		o.t.problem("agg %v answer is NaN without an error", spec.Agg)
		return
	}
	var truth float64
	switch spec.Agg {
	case query.Mean:
		truth = sum / float64(count)
	case query.Min:
		truth = lo
	case query.Max:
		truth = hi
	default:
		o.t.AggUnchecked++
		return
	}
	if count == 0 || res.Count != count {
		o.t.AggUnchecked++
		return
	}
	o.t.observe("agg", res.Value, truth, res.ErrBound)
}

// sourceNames lists the sources seen, sorted, for stable reports.
func (t tally) sourceNames() []string {
	names := make([]string, 0, len(t.BySource))
	for k := range t.BySource {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
