package main

import (
	"math"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// A hand-built world: mote m reads m + (hours since start), motes 1 and
// 2 sample every minute, mote 3 every five.
func testOracle() *oracle {
	truth := func(m radio.NodeID, t simtime.Time) float64 {
		return float64(m) + time.Duration(t).Hours()
	}
	interval := func(m radio.NodeID) time.Duration {
		if m == 3 {
			return 5 * time.Minute
		}
		return time.Minute
	}
	return newOracle(truth, interval, []radio.NodeID{1, 2, 3})
}

func at(d time.Duration) simtime.Time { return simtime.Time(d) }

func answer(m radio.NodeID, src proxy.Source, entries ...cache.Entry) query.Result {
	return query.Result{Query: query.Query{Mote: m}, Answer: proxy.Answer{Mote: m, Source: src, Entries: entries}}
}

func TestOracleEntriesWithinBound(t *testing.T) {
	o := testOracle()
	spec := query.Spec{Type: query.Past, Select: query.SelectMotes(1, 2), T0: at(time.Hour), T1: at(2 * time.Hour), Precision: 0.5}
	res := query.SetResult{Results: []query.Result{
		answer(1, proxy.FromModel, cache.Entry{T: at(time.Hour), V: 2.4, ErrBound: 0.5}),
		answer(2, proxy.FromPull, cache.Entry{T: at(2 * time.Hour), V: 4, ErrBound: 0}),
	}}
	o.check(spec, res)
	tl := o.snapshot()
	if tl.Checked != 2 || tl.Violations != 0 || tl.Problems != 0 {
		t.Fatalf("tally = %+v, want 2 checked, no violations or problems", tl)
	}
}

// No slack: an excess far below any plausible rounding tolerance is
// still a violation, booked against the answer's source.
func TestOracleCountsTinyExcessBySource(t *testing.T) {
	o := testOracle()
	spec := query.Spec{Type: query.Now, Select: query.SelectMotes(1, 2), Precision: 1}
	res := query.SetResult{Results: []query.Result{
		answer(1, proxy.FromArchive, cache.Entry{T: at(time.Hour), V: 2 + 1e-6, ErrBound: 0}),
		answer(2, proxy.FromCache, cache.Entry{T: at(time.Hour), V: 3 + 0.49 + 0.25, ErrBound: 0.25}),
	}}
	o.check(spec, res)
	tl := o.snapshot()
	if tl.Checked != 2 || tl.Violations != 2 {
		t.Fatalf("tally = %+v, want 2 checked and 2 violations", tl)
	}
	if got := tl.BySource["archive"]; got == nil || got.Violations != 1 || math.Abs(got.MaxExcess-1e-6) > 1e-12 {
		t.Fatalf("archive tally = %+v, want one violation of excess 1e-6", got)
	}
	if got := tl.BySource["cache"]; got == nil || math.Abs(got.MaxExcess-0.49) > 1e-9 {
		t.Fatalf("cache tally = %+v, want max excess 0.49", got)
	}
	if math.Abs(tl.MaxExcess-0.49) > 1e-9 || math.Abs(tl.violationRatio()-1) > 0 {
		t.Fatalf("max excess %v ratio %v, want 0.49 and 1", tl.MaxExcess, tl.violationRatio())
	}
}

func TestOracleFlagsMalformedAnswers(t *testing.T) {
	o := testOracle()
	spec := query.Spec{Type: query.Past, Select: query.SelectMotes(1, 2), T0: at(time.Hour), T1: at(2 * time.Hour)}
	res := query.SetResult{Results: []query.Result{
		answer(1, proxy.FromModel, cache.Entry{T: at(3 * time.Hour), V: 4}), // outside the window
		answer(3, proxy.FromModel, cache.Entry{T: at(time.Hour), V: 4}),     // nobody asked about mote 3
	}}
	o.check(spec, res)
	tl := o.snapshot()
	// Outside-window entry, unasked mote, and mote 2 missing from a
	// round that reports no failures.
	if tl.Problems != 3 || tl.Checked != 0 {
		t.Fatalf("tally = %+v, want 3 problems and nothing checked", tl)
	}
}

func TestOracleAggregatesOverSampleGrid(t *testing.T) {
	o := testOracle()
	// [1h, 1h10m]: motes 1 and 2 have 11 one-minute slots each, mote 3
	// has three five-minute slots: 25 observations.
	t0, t1 := at(time.Hour), at(time.Hour+10*time.Minute)
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for m := radio.NodeID(1); m <= 3; m++ {
		step := 1
		if m == 3 {
			step = 5
		}
		for k := 0; k <= 10; k += step {
			v := float64(m) + (time.Hour + time.Duration(k)*time.Minute).Hours()
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	mean := sum / 25

	o.check(query.Spec{Type: query.Agg, Agg: query.Mean, T0: t0, T1: t1},
		query.SetResult{Value: mean + 0.05, ErrBound: 0.1, Count: 25})
	o.check(query.Spec{Type: query.Agg, Agg: query.Max, T0: t0, T1: t1},
		query.SetResult{Value: hi + 0.2, ErrBound: 0.1, Count: 25})
	o.check(query.Spec{Type: query.Agg, Agg: query.Min, T0: t0, T1: t1},
		query.SetResult{Value: lo, Count: 25})
	tl := o.snapshot()
	if tl.Checked != 3 || tl.Violations != 1 || tl.AggUnchecked != 0 {
		t.Fatalf("tally = %+v, want 3 checked, 1 violation (max)", tl)
	}
	if math.Abs(tl.MaxExcess-0.1) > 1e-9 {
		t.Fatalf("max excess %v, want 0.1", tl.MaxExcess)
	}
}

func TestOracleLeavesUnpinnableAggregatesUnchecked(t *testing.T) {
	o := testOracle()
	t0, t1 := at(time.Hour), at(time.Hour+10*time.Minute)
	// A count off the sample grid, and a mode, cannot be pinned.
	o.check(query.Spec{Type: query.Agg, Agg: query.Mean, T0: t0, T1: t1}, query.SetResult{Value: 1, Count: 24})
	o.check(query.Spec{Type: query.Agg, Agg: query.Mode, T0: t0, T1: t1}, query.SetResult{Value: 1, Count: 25})
	// A trailing window pins at the round's instant.
	o.check(query.Spec{Type: query.Agg, Agg: query.Min, Trailing: 10 * time.Minute, Select: query.SelectMotes(2)},
		query.SetResult{At: t1, Value: 2 + time.Hour.Hours(), Count: 11})
	tl := o.snapshot()
	if tl.AggUnchecked != 2 || tl.Checked != 1 || tl.Violations != 0 {
		t.Fatalf("tally = %+v, want 2 unchecked and the trailing min checked clean", tl)
	}
}

// A trailing window whose start is off a slow mote's sampling instants:
// like the proxies, the oracle lays each mote's grid from the window's
// start, so over [1h2m, 1h12m] mote 3 (every 5 minutes) contributes
// 1h2m, 1h7m and 1h12m, and an answer counting only the two instants
// mote 3 sampled at inside the window is left unchecked.
func TestOracleTrailingWindowGridStartsAtWindow(t *testing.T) {
	o := testOracle()
	t1 := at(time.Hour + 12*time.Minute) // the window starts 10 minutes earlier, at 1h2m
	var sum float64
	count := 0
	for k := 2; k <= 12; k++ { // mote 1: 11 one-minute points
		sum += 1 + (time.Hour + time.Duration(k)*time.Minute).Hours()
		count++
	}
	for _, k := range []int{2, 7, 12} {
		sum += 3 + (time.Hour + time.Duration(k)*time.Minute).Hours()
		count++
	}
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Trailing: 10 * time.Minute, Select: query.SelectMotes(1, 3)}
	o.check(spec, query.SetResult{At: t1, Value: sum / float64(count), Count: count})
	o.check(spec, query.SetResult{At: t1, Value: sum / float64(count), Count: count - 1})
	tl := o.snapshot()
	if count != 14 || tl.Checked != 1 || tl.AggUnchecked != 1 || tl.Violations != 0 {
		t.Fatalf("count %d, tally = %+v, want the 14-point answer checked clean and the 13-point one unchecked", count, tl)
	}
}
