package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/proxy"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// refEncodeSetResultJSON is the reflection-based encoder
// EncodeSetResultJSON replaced: json.Marshal of setResultWire. It pins
// the reply format byte for byte.
func refEncodeSetResultJSON(r SetResult) ([]byte, error) {
	w := setResultWire{
		Seq:    r.Seq,
		At:     Dur(r.At),
		Count:  r.Count,
		Failed: r.Failed,
	}
	if !math.IsNaN(r.Value) && (r.Count > 0 || r.Value != 0 || r.ErrBound != 0) {
		v, e := r.Value, r.ErrBound
		w.Value, w.ErrBound = &v, &e
	}
	for _, res := range r.Results {
		rw := resultWire{
			Mote:     int(res.Query.Mote),
			Source:   res.Answer.Source.String(),
			IssuedAt: Dur(res.Answer.IssuedAt),
			DoneAt:   Dur(res.Answer.DoneAt),
		}
		if res.Err != nil {
			rw.Error, rw.Code = res.Err.Error(), ErrCode(res.Err)
		}
		for _, e := range res.Answer.Entries {
			rw.Entries = append(rw.Entries, entryWire{
				T: Dur(e.T), V: e.V, ErrBound: e.ErrBound, Source: e.Source.String(),
			})
		}
		w.Results = append(w.Results, rw)
	}
	for _, se := range r.SiteErrs {
		w.SiteErrs = append(w.SiteErrs, siteErrWire{Site: se.Site, Error: se.Err.Error(), Code: ErrCode(se.Err)})
	}
	if r.Err != nil {
		w.Error, w.Code = r.Err.Error(), ErrCode(r.Err)
	}
	return json.Marshal(w)
}

// randDur draws durations across every branch of the Go duration format:
// zero, nanoseconds, µs, ms, whole and fractional seconds, minutes,
// hours, negatives and the int64 extremes.
func randDur(rng *rand.Rand) simtime.Time {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return simtime.Time(rng.Int63n(1000)) // ns
	case 2:
		return simtime.Time(1000 + rng.Int63n(999_000)) // µs
	case 3:
		return simtime.Time(1_000_000 + rng.Int63n(999_000_000)) // ms
	case 4:
		return simtime.Time(rng.Int63n(200)) * simtime.Minute
	case 5:
		return -simtime.Time(rng.Int63())
	case 6:
		return []simtime.Time{math.MinInt64, math.MaxInt64, -1, 1, simtime.Time(time.Second), simtime.Time(time.Hour)}[rng.Intn(6)]
	default:
		return simtime.Time(rng.Int63n(int64(72 * time.Hour)))
	}
}

// randFloat draws values across encoding/json's float formats: zero and
// negative zero, the 1e-6 and 1e21 exponent cutoffs, subnormals, and
// ordinary readings.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(9) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 9.99999e-7, 1e21, 9.99999e20, 1e-7, 5e-324, math.MaxFloat64, -1e-9, 1e100}[rng.Intn(9)]
	case 3:
		return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or zero
	case 4:
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 1
		}
		return f
	case 5:
		return float64(rng.Intn(100))
	default:
		return 20 + rng.NormFloat64()*5
	}
}

// randErr draws errors whose messages need every kind of JSON escaping,
// typed sentinels (coded), and an empty message.
func randErr(rng *rand.Rand) error {
	msgs := []string{
		"conn reset", `say "hi" <b>&amp;</b>`, "tab\there\nnewline\r\x00\x1f\x7f",
		"back\\slash", "µs and ünïcödé", "bad \xff utf8 \xc3", "line\u2028sep\u2029para",
		"\b\f", "",
	}
	switch rng.Intn(5) {
	case 0:
		return ErrEmptyAggregate
	case 1:
		return fmt.Errorf("scatter: %w", ErrNoMotes)
	default:
		return errors.New(msgs[rng.Intn(len(msgs))])
	}
}

// randSetResult builds a round with a random shape: an aggregate, a
// per-mote round, or both, with every optional field sometimes empty.
func randSetResult(rng *rand.Rand) SetResult {
	r := SetResult{Seq: rng.Intn(3) * rng.Intn(1000), At: randDur(rng)}
	if rng.Intn(2) == 0 {
		r.Value, r.ErrBound, r.Count = randFloat(rng), randFloat(rng), rng.Intn(3)*rng.Intn(5000)
		if rng.Intn(6) == 0 {
			r.Value = math.NaN() // empty aggregate
		}
	}
	if rng.Intn(2) == 0 {
		for m := rng.Intn(5); m > 0; m-- {
			res := Result{Query: Query{Mote: radio.NodeID(rng.Intn(1000))}, Answer: proxy.Answer{
				Source:   proxy.Source(rng.Intn(proxy.NumSources + 1)),
				IssuedAt: randDur(rng), DoneAt: randDur(rng),
			}}
			for e := rng.Intn(30); e > 0; e-- {
				ent := cache.Entry{T: randDur(rng), V: randFloat(rng), Source: cache.Source(rng.Intn(4))}
				if rng.Intn(2) == 0 {
					ent.ErrBound = randFloat(rng)
				}
				res.Answer.Entries = append(res.Answer.Entries, ent)
			}
			if rng.Intn(5) == 0 {
				res.Err = randErr(rng)
			}
			r.Results = append(r.Results, res)
		}
	}
	r.Failed = rng.Intn(2) * rng.Intn(10)
	for n := rng.Intn(2) * rng.Intn(4); n > 0; n-- {
		r.SiteErrs = append(r.SiteErrs, SiteError{Site: rng.Intn(8), Err: randErr(rng)})
	}
	if rng.Intn(4) == 0 {
		r.Err = randErr(rng)
	}
	return r
}

// TestEncodeSetResultJSONMatchesMarshal pins the hand-written encoder to
// json.Marshal of setResultWire, byte for byte, over random rounds, and
// checks that a NaN or ±Inf anywhere json.Marshal would reject it is an
// error for both.
func TestEncodeSetResultJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		r := randSetResult(rng)
		want, wantErr := refEncodeSetResultJSON(r)
		got, err := EncodeSetResultJSON(r)
		if wantErr != nil || err != nil {
			t.Fatalf("round %d: encode errors: ref %v, new %v", i, wantErr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: bytes differ\n got %s\nwant %s", i, got, want)
		}
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 300; i++ {
		r := randSetResult(rng)
		f := bad[i%len(bad)]
		switch i % 4 {
		case 0, 1:
			r.Results = append(r.Results, Result{Answer: proxy.Answer{Entries: []cache.Entry{{V: 1}, {V: f}}}})
		case 2:
			r.Results = append(r.Results, Result{Answer: proxy.Answer{Entries: []cache.Entry{{V: 1, ErrBound: f}}}})
		default:
			r.Value, r.ErrBound, r.Count = 1, f, 1
		}
		if _, err := refEncodeSetResultJSON(r); err == nil {
			t.Fatalf("case %d: json.Marshal accepted %v", i, f)
		}
		if b, err := EncodeSetResultJSON(r); err == nil {
			t.Fatalf("case %d: encoded %v without an error: %s", i, f, b)
		}
	}
}

// TestAppendJSONDurMatchesString checks the in-place duration format
// against time.Duration.String over every unit boundary.
func TestAppendJSONDurMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(d time.Duration) {
		if got, want := string(appendJSONDur(nil, d)), `"`+d.String()+`"`; got != want {
			t.Fatalf("appendJSONDur(%d) = %s, want %s", int64(d), got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, -1, 999, 1000, 999_999, time.Millisecond, time.Second - 1, time.Second,
		time.Minute, time.Hour, 90 * time.Minute, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		check(d)
	}
	for i := 0; i < 20000; i++ {
		check(time.Duration(randDur(rng)))
	}
}

// BenchmarkEncodeSetResultJSON prices the reply of one PAST round: four
// motes, 24 hours of 1-minute entries each.
func BenchmarkEncodeSetResultJSON(b *testing.B) {
	r := SetResult{At: 36 * simtime.Hour}
	for m := 0; m < 4; m++ {
		res := Result{Query: Query{Mote: radio.NodeID(m + 1)}, Answer: proxy.Answer{
			Mote: radio.NodeID(m + 1), Source: proxy.FromArchive, IssuedAt: 36 * simtime.Hour, DoneAt: 36 * simtime.Hour,
		}}
		for t := 12 * simtime.Hour; t <= 36*simtime.Hour; t += simtime.Minute {
			res.Answer.Entries = append(res.Answer.Entries, cache.Entry{
				T: t, V: 20 + float64(t%1000)/997, ErrBound: 0.25, Source: cache.Pulled,
			})
		}
		r.Results = append(r.Results, res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSetResultJSON(r); err != nil {
			b.Fatal(err)
		}
	}
}
