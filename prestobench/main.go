// Command prestobench is the repository benchmark. It runs one seeded
// workload against the real HTTP front door (internal/serve) over
// loopback, checks every answer against ground truth, and prints the
// end-to-end metrics — or, with --trace 1, a per-layer breakdown timed
// from spans and serial probes around each module's public calls.
//
// Workloads:
//
//	hot-repeat   closed loop, 2 clients, the campus arrival mix against a
//	             parked clock: nearly every answer is a semantic cache hit
//	cold-scan    open loop, Poisson, every question distinct: engine,
//	             proxy range assembly, mem archive and rendezvous
//	live-ingest  open loop while a coordinator and one site (cluster.TCP,
//	             flash + wavelet aging, wired replica) advance virtual time
//	             on a fixed wall schedule, with /metricsz scraped under load
//
// Usage (from the repository root):
//
//	bash prestobench/run.sh --workload cold-scan --seed 1 --seconds 20 --trace 0
//	bash prestobench/run.sh --workload cold-scan --seed 1 --seconds 20 --repeat 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics BENCHMARK.json lists for the mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"presto/internal/proxy"
	"presto/internal/simtime"
	"presto/internal/store"
)

// setupReps is how many times a run sets the deployment up; setup_s is
// the median. setup_s counts the process's CPU seconds, not wall time:
// on the 2-vCPU reference VM the wall-clock median of hot-repeat's
// set-up moved 31% between two ten-seed sets half an hour apart as the
// host's steal rose, while the queries' CPU time moved 3%. The kernel
// does not charge stolen time to the process; work moved into set-up
// still shows. The wall time is printed as setup_wall_s.
const setupReps = 5

// e2eMetrics are the end-to-end metrics the JSON line carries with
// --trace 0, in BENCHMARK.json order: the ones steady enough to gate on
// the 2-vCPU reference VM, whose host steals 15-25% of the CPU at times
// and halves its speed at worst. The latencies and throughput_qps are
// printed beside them; over ten seeds the spread ((q3-q1)/median) of the
// latencies on cold-scan and live-ingest ran 0.25-1.3, and over five
// seeds that of cold-scan's closed-loop throughput ran 0.08-0.23, too
// close to the 0.25 a bound may be. cpu_ms_per_query, which the kernel
// does not charge stolen time to, ran 0.04-0.13.
var e2eMetrics = []string{"setup_s", "cpu_ms_per_query", "peak_heap_mb"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured wall seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run k times with seeds seed..seed+k-1 and print each metric's median, quartiles and spread")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 2 {
		fmt.Fprintln(os.Stderr, "prestobench: --seconds must be at least 2")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := runRepeat(o, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "prestobench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prestobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prestobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects every metric a run measured, in print order; the
// final JSON line carries the subset BENCHMARK.json names.
type report struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func newReport() *report { return &report{m: map[string]metric{}, notes: map[string]string{}} }

func (r *report) set(name string, v float64, unit, note string) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
		note = strings.TrimSpace(note + " (no samples)")
	}
	r.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// print lists every metric; those the JSON line carries are starred.
func (r *report) print(title string, inJSON []string) {
	fmt.Println(title + " (* = in the JSON line)")
	for _, n := range r.names {
		m := r.m[n]
		mark := " "
		if slices.Contains(inJSON, n) {
			mark = "*"
		}
		line := fmt.Sprintf("%s %-36s %14.6g %-6s", mark, n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// pick returns the named metrics for the JSON line.
func (r *report) pick(names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	return out, nil
}

// setupRun sets the deployment up setupReps times, keeping the last,
// and records the medians of the set-up times.
func setupRun(ctx context.Context, o options, p plan, rep *report) (*deployment, error) {
	var cpu, total, gen, build, join, warm, adv []float64
	var dep *deployment
	for i := 0; i < setupReps; i++ {
		if dep != nil {
			dep.close()
		}
		c0 := processCPU()
		d, err := deploy(ctx, o.workload, p)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		dep = d
		cpu = append(cpu, processCPU()-c0)
		total = append(total, d.setupTime().Seconds())
		gen = append(gen, d.gen.Seconds())
		build = append(build, d.build.Seconds())
		join = append(join, d.join.Seconds())
		warm = append(warm, d.warm.Seconds())
		adv = append(adv, d.advanceUS...)
	}
	note := fmt.Sprintf("median of %d set-ups", setupReps)
	rep.set("setup_s", median(cpu), "s", "process CPU (user + system), "+note)
	rep.set("setup_wall_s", median(total), "s", "wall clock, "+note)
	rep.set("setup.gen_s", median(gen), "s", "trace synthesis, "+note)
	rep.set("setup.build_s", median(build), "s", "core.Build / cluster.Listen, "+note)
	rep.set("setup.join_s", median(join), "s", "cluster join (live-ingest only), "+note)
	rep.set("setup.warm_s", median(warm), "s", "bootstrap + model-driven warm-up, "+note)
	rep.set("core.advance_us", median(adv), "us", fmt.Sprintf("per %v warm-up chunk, %d chunks", chunk, len(adv)))
	return dep, nil
}

// run executes one workload run and returns its JSON line.
func run(ctx context.Context, o options) (*output, error) {
	p := planFor(o.workload, o.seconds)
	histEnd := simtime.Time(p.trainFor + p.warmFor)
	heap0 := liveHeap()
	s, err := buildSchedule(o.workload, o.seed, o.seconds, histEnd)
	if err != nil {
		return nil, err
	}
	scheduleBytes := max(liveHeap()-heap0, 0)
	fmt.Printf("prestobench: workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("schedule: sha256=%s (%d queries, %d ingest chunks, %d scrapes)\n",
		s.digest(), len(s.reqs), len(s.ingest), len(s.scrapes))

	rep := newReport()
	dep, err := setupRun(ctx, o, p, rep)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	b, err := startBench(o.workload, dep, o.trace)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	if o.workload == hotRepeat {
		if err := b.warmPass(s.reqs); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return b.tracedRun(ctx, o, s, histEnd, rep)
	}

	latency, capacity := phases(o.workload, o.seconds)
	var drift *driftProbe
	var side func(<-chan struct{})
	if o.workload == coldScan {
		drift = &driftProbe{dep: dep, half: latency / 2}
		side = drift.run
	}
	// ph measures latency; cp, a closed loop, measures capacity. On
	// hot-repeat one closed loop is both.
	var ph, cp *phase
	if capacity == 0 {
		ph, err = b.runPhase(ctx, s, latency, true, false, false, side)
		cp = ph
	} else {
		first, second := s.split(latency, false)
		second.reqs = s.capacity
		if ph, err = b.runPhase(ctx, first, latency, false, false, true, side); err == nil {
			cp, err = b.runPhase(ctx, second, capacity, true, false, true, nil)
		}
	}
	if err != nil {
		return nil, err
	}
	all := []*phase{ph}
	if cp != ph {
		all = append(all, cp)
	}
	tl := b.orc.snapshot()
	out := verdict(tl, all...)
	e2e(rep, o.workload, ph, cp, out)
	harness := scheduleBytes + ph.bufferBytes() + ph.chk.memoBytes()
	rep.set("harness_heap_mb", float64(harness)/(1<<20), "MB",
		fmt.Sprintf("of peak_heap_mb: schedule %.1f MB, sample buffers %.1f MB, reply memo %.1f MB",
			float64(scheduleBytes)/(1<<20), float64(ph.bufferBytes())/(1<<20), float64(ph.chk.memoBytes())/(1<<20)))
	rep.print("end-to-end:", e2eMetrics)
	printOracle(tl)
	printValidity("latency phase", o.workload, ph, true)
	if cp != ph {
		printValidity("capacity phase", o.workload, cp, false)
	}
	if drift != nil {
		drift.print()
	}
	out.Metrics, err = rep.pick(e2eMetrics)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// liveHeap collects garbage and returns the heap left live, in bytes.
func liveHeap() int {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return int(sample[0].Value.Uint64())
}

// warmPass asks every distinct hot-repeat question once, unmeasured, so
// the measured phase sees the steady state of a warm semantic cache.
func (b *bench) warmPass(reqs []request) error {
	c := newClient()
	defer c.CloseIdleConnections()
	seen := map[string]bool{}
	p := &phase{failures: map[string]int{}}
	var err error
	if p.chk, err = newChecker(b.orc, false, 0, p); err != nil {
		return err
	}
	for i := range reqs {
		if seen[string(reqs[i].body)] {
			continue
		}
		seen[string(reqs[i].body)] = true
		b.exchange(c, p, &reqs[i], time.Now(), false)
	}
	p.chk.finish()
	if p.failed > 0 {
		return fmt.Errorf("hot-repeat warm pass: %d of %d questions failed: %v", p.failed, p.attempted(), p.failures)
	}
	return nil
}

// rateBlocks is how many blocks of completions throughput_qps is the
// median of.
const rateBlocks = 15

// e2e books the end-to-end metrics: latencies, scrapes, ingest and heap
// from the latency phase ph, throughput from the capacity phase cp (the
// same phase on hot-repeat), and the error ratio over every operation.
func e2e(rep *report, wl string, ph, cp *phase, out *output) {
	pct := func(name string, xs []float64, q float64, k int, note string) {
		rep.set(name, blocked(xs, q, k), "ms",
			fmt.Sprintf("n=%d, median over %d blocks%s", len(xs), max(k, 1), note))
	}
	only := "; live-ingest only"
	rep.set("throughput_qps", blockRate(cp.done, rateBlocks), "1/s",
		fmt.Sprintf("closed loop of %d clients, median over %d blocks; %d answered in %.2f s",
			clients, rateBlocks, cp.answered(), cp.seconds))
	rep.set("cpu_ms_per_query", 1000*ph.cpu/float64(ph.answered()), "ms",
		fmt.Sprintf("process CPU (user + system) per answered query over the latency phase, %.2f s in all; scrapes, ingest and load client included", ph.cpu))
	if cp != ph {
		rep.set("capacity_cpu_ms_per_query", 1000*cp.cpu/float64(cp.answered()), "ms",
			fmt.Sprintf("the same over the capacity phase, %.2f s in all", cp.cpu))
		// An open loop answers what it is offered; its rate only shows
		// whether the program kept up.
		rep.set("open_loop_qps", float64(ph.answered())/ph.seconds, "1/s",
			fmt.Sprintf("latency phase: %d of %d sent answered in %.2f s", ph.answered(), ph.queries, ph.seconds))
	}
	pct("latency_p50_ms", ph.lat, 0.5, p50Blocks(len(ph.lat)), "")
	pct("latency_p99_ms", ph.lat, 0.99, p99Blocks(len(ph.lat)), "")
	pct("scrape_p50_ms", ph.scrape, 0.5, p50Blocks(len(ph.scrape)), "")
	pct("scrape_p99_ms", ph.scrape, 0.99, p99Blocks(len(ph.scrape)), "")
	if wl == liveIngest {
		pct("ingest_p50_ms", ph.ingest, 0.5, p50Blocks(len(ph.ingest)), only)
		pct("ingest_p99_ms", ph.ingest, 0.99, p99Blocks(len(ph.ingest)), only)
		var busy float64
		for _, v := range ph.lease {
			busy += v
		}
		rep.set("ingest_busy_ratio", busy/1000/ph.length.Seconds(), "ratio",
			fmt.Sprintf("wall time inside Coordinator.Run over the phase, %d chunks%s", len(ph.lease), only))
	}
	rep.set("peak_heap_mb", float64(ph.peakHeap)/(1<<20), "MB", "Go heap live after marking, whole process; harness_heap_mb is the benchmark's share")
	tl := ph.chk.orc.snapshot()
	rep.set("bound_violation_ratio", tl.violationRatio(), "ratio",
		fmt.Sprintf("%d of %d checked entries", tl.Violations, tl.Checked))
	rep.set("error_ratio", ratio(float64(out.Failed), float64(out.Attempted)), "ratio",
		fmt.Sprintf("%d of %d queries, chunks and scrapes; the JSON line's failed/attempted", out.Failed, out.Attempted))
}

// printOracle prints the oracle's account, violations by source.
func printOracle(tl tally) {
	fmt.Printf("oracle: %d checked, %d violations (ratio %.6g, max excess %.6g), %d aggregates unchecked, %d malformed",
		tl.Checked, tl.Violations, tl.violationRatio(), tl.MaxExcess, tl.AggUnchecked, tl.Problems)
	if tl.FirstProblem != "" {
		fmt.Printf(" (first: %s)", tl.FirstProblem)
	}
	fmt.Println()
	for _, src := range tl.sourceNames() {
		st := tl.BySource[src]
		fmt.Printf("  source %-8s %8d checked %6d violations (ratio %.6g) max excess %.6g\n",
			src, st.Checked, st.Violations, ratio(float64(st.Violations), float64(st.Checked)), st.MaxExcess)
	}
}

// Generator health: every query, scrape and chunk is timed from its due
// time, so a late wake-up is charged to the latency it delays. A run is
// invalid only when the generator's p99 wake-up lateness exceeds
// genLateLimit: beyond that, arrivals bunch and the offered load no
// longer has the schedule's shape. The capacity phase that follows an
// open loop is not judged: it saturates the CPU on purpose, so its side
// loops' timers fire late by design.
const genLateLimit = 50.0 // ms

// printValidity reports the generator's own lateness and the backlog,
// and judges the phase when judge is set.
func printValidity(label, wl string, ph *phase, judge bool) {
	late := 0
	for _, v := range ph.genLate {
		if v > genLateLimit {
			late++
		}
	}
	valid := !(quantile(ph.genLate, 0.99) > genLateLimit)
	fmt.Printf("generator (%s): %d wake-ups, lateness p50 %.3f ms p99 %.3f ms max %.3f ms, %d over %.0f ms; backlog at end %d; %d of %d operations failed\n",
		label, len(ph.genLate), quantile(ph.genLate, 0.5), quantile(ph.genLate, 0.99), quantile(ph.genLate, 1),
		late, genLateLimit, ph.backlog, ph.failed, ph.attempted())
	if ph.ingestErr != nil {
		fmt.Printf("ingest: stopped early: %v\n", ph.ingestErr)
	}
	if len(ph.failures) > 0 {
		keys := make([]string, 0, len(ph.failures))
		for k := range ph.failures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("failures: %s=%d\n", k, ph.failures[k])
		}
	}
	switch {
	case !judge:
		fmt.Printf("validity (%s): not judged (saturating closed loop)\n", label)
	case valid:
		fmt.Printf("validity (%s): valid\n", label)
	default:
		fmt.Printf("validity (%s): INVALID — the load generator fell behind its schedule\n", label)
		fmt.Fprintf(os.Stderr, "prestobench: %s run invalid in the %s: generator p99 lateness %.1f ms over %.0f ms\n",
			wl, label, quantile(ph.genLate, 0.99), genLateLimit)
	}
}

// driftProbe snapshots the proxies' answer sources at the start, middle
// and end of a phase, so a route mix converging towards all-cached
// shows as a difference between the halves.
type driftProbe struct {
	dep   *deployment
	half  time.Duration
	proxy [3]proxy.Stats
	store [3]store.RoutingStats
}

func (d *driftProbe) snap(i int) {
	d.proxy[i], d.store[i] = d.dep.net.ProxyStats(), d.dep.net.StoreStats()
}

func (d *driftProbe) run(stop <-chan struct{}) {
	d.snap(0)
	select {
	case <-time.After(d.half):
	case <-stop:
	}
	d.snap(1)
	<-stop
	d.snap(2)
}

// print shows each half's per-mote routing: archive hits plus the
// proxies' answers by source.
func (d *driftProbe) print() {
	for h := 0; h < 2; h++ {
		a, b := d.proxy[h], d.proxy[h+1]
		archive := d.store[h+1].ArchiveServed - d.store[h].ArchiveServed
		total := float64(b.QueriesAnswered - a.QueriesAnswered + archive)
		fmt.Printf("route mix, half %d: %.0f per-mote answers; archive %.3f", h+1, total, ratio(float64(archive), total))
		for src := proxy.Source(0); int(src) < proxy.NumSources; src++ {
			if n := b.AnswersBySource[src] - a.AnswersBySource[src]; n > 0 {
				fmt.Printf(" %s %.3f", src, ratio(float64(n), total))
			}
		}
		fmt.Printf("; pulls issued %d\n", b.PullsIssued-a.PullsIssued)
	}
}
