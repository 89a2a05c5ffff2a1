package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A failed advance fails the run: the failing chunk and every chunk due
// after it count as attempted and failed operations.
func TestIngestErrorFailsTheRun(t *testing.T) {
	dues := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	p := newPhase(schedule{ingest: dues}, 50*time.Millisecond, false)
	calls := 0
	advance := func(context.Context) error {
		calls++
		if calls == 2 {
			return errors.New("lease lost")
		}
		return nil
	}
	start := time.Now()
	ingestLoop(context.Background(), p, dues, start, start.Add(p.length), advance)
	out := verdict(tally{}, p)
	if calls != 2 || p.ingestErr == nil {
		t.Fatalf("advance called %d times, ingestErr %v; want the loop to stop at the error", calls, p.ingestErr)
	}
	if out.Correct || out.Attempted != 4 || out.Failed != 3 {
		t.Fatalf("verdict = %+v, want incorrect with 4 attempted and 3 failed", out)
	}
	if p.failures["ingest"] != 1 || p.failures["ingest_skipped"] != 2 || p.answered() != 0 {
		t.Fatalf("failures = %v, answered %d", p.failures, p.answered())
	}
}

// A non-200 scrape is a failed operation too.
func TestScrapeErrorFailsTheRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	dues := []time.Duration{0, 5 * time.Millisecond}
	p := newPhase(schedule{scrapes: dues}, 50*time.Millisecond, false)
	start := time.Now()
	scrapeLoop(p, srv.URL, dues, start, start.Add(p.length))
	out := verdict(tally{}, p)
	if out.Correct || out.Attempted != 2 || out.Failed != 2 || p.failures["scrape_http_503"] != 2 {
		t.Fatalf("verdict = %+v, failures %v; want both scrapes failed", out, p.failures)
	}
}

// A clean phase is correct only while the oracle saw no malformed answer.
func TestVerdictCountsMalformedAnswers(t *testing.T) {
	p := newPhase(schedule{}, time.Second, false)
	p.queries = 3
	if out := verdict(tally{}, p); !out.Correct || out.Attempted != 3 || out.Failed != 0 {
		t.Fatalf("clean verdict = %+v", out)
	}
	if out := verdict(tally{Problems: 1}, p); out.Correct {
		t.Fatalf("verdict with a malformed answer = %+v, want incorrect", out)
	}
}
