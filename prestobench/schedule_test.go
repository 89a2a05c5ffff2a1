package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"presto/internal/query"
	"presto/internal/simtime"
)

func TestScheduleDigestIsSeeded(t *testing.T) {
	histEnd := simtime.Time(36 * time.Hour)
	for _, wl := range workloads {
		a, err := buildSchedule(wl, 7, 4, histEnd)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSchedule(wl, 7, 4, histEnd)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildSchedule(wl, 8, 4, histEnd)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, digests %s and %s", wl, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 share digest %s", wl, a.digest())
		}
		if len(a.reqs) == 0 || len(a.scrapes) == 0 {
			t.Errorf("%s: empty schedule (%d queries, %d scrapes)", wl, len(a.reqs), len(a.scrapes))
		}
		if _, capacity := phases(wl, 4); capacity > 0 && len(a.capacity) == 0 {
			t.Errorf("%s: no questions for the %v capacity phase", wl, capacity)
		}
	}
}

func TestColdScanQuestionsAreDistinctAndInsideHistory(t *testing.T) {
	histEnd := simtime.Time(36 * time.Hour)
	s, err := buildSchedule(coldScan, 3, 10, histEnd)
	if err != nil {
		t.Fatal(err)
	}
	// The capacity phase's questions are distinct from the latency
	// phase's as well as from each other.
	shapes := map[string]bool{}
	for _, r := range append(s.reqs, s.capacity...) {
		spec, err := query.DecodeSpecJSON(r.body)
		if err != nil {
			t.Fatal(err)
		}
		if spec.T0 < 0 || spec.T1 > histEnd || spec.T1-spec.T0 < simtime.Time(time.Hour) || spec.T1-spec.T0 > simtime.Time(24*time.Hour) {
			t.Fatalf("window [%v, %v] outside 1-24 h inside the history", spec.T0, spec.T1)
		}
		key := fmt.Sprint(spec.Type, spec.Agg, spec.Select.Motes, spec.T0, spec.T1)
		if shapes[key] {
			t.Fatalf("question asked twice: %s", r.body)
		}
		shapes[key] = true
	}
}

func TestPoissonRate(t *testing.T) {
	arr := poisson(subRand(1, "t"), 100, 100*time.Second)
	if n := len(arr); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 100 s at 100/s", n)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestBlockRateIgnoresAStalledBlock(t *testing.T) {
	// 100 completions per second for 3 s, except that the second block of
	// 100 took two seconds.
	var done []float64
	for i := 1; i <= 100; i++ {
		done = append(done, float64(i)/100)
	}
	for i := 1; i <= 100; i++ {
		done = append(done, 1+float64(i)/50)
	}
	for i := 1; i <= 100; i++ {
		done = append(done, 3+float64(i)/100)
	}
	if got := blockRate(done, 3); math.Abs(got-100) > 1e-9 {
		t.Fatalf("blockRate = %v, want 100", got)
	}
}
