// Command prestod runs a PRESTO deployment simulation: a multi-proxy,
// multi-mote network over synthetic temperature data (or a scenario
// spec), either in one process or as the coordinator of a multi-process
// cluster, driven through one schedule and reported the same way.
//
// Usage:
//
//	prestod [-proxies N] [-motes N] [-shards N] [-days N] [-delta F]
//	        [-queries N] [-precision F] [-loss F] [-seed N] [-v]
//	        [-store mem|flash] [-aging wavelet[:tiers]|uniform] [-wired]
//	        [-max-staleness D] [-every D] [-runtime-trace file]
//	        [-http addr [-http-qps F] [-http-pace D] [-pprof] [-slow-query D]]
//	        [-listen addr [-sites N] [-quantum D] [-checkpoint dir] | -join addr]
//	        [-scenario file.json|preset]
//
// The deployment mode is chosen once, at start: a single process builds
// the whole network in-process; -listen makes this process a cluster
// coordinator that hosts the first window of simulation domains and
// waits for -sites-1 joiners over TCP (internal/cluster). Everything
// after that is the same code, driven through one deployment seam:
//
//  1. Bootstrap: stream for min(36h, days/2) of virtual time, then train
//     and ship the seasonal-anchored models.
//  2. Run half of the remaining time quietly.
//  3. Pose a trailing 2h mean AGG over every mote and print it at full
//     float64 precision ("cluster agg: mean=..."). The same flags give
//     the same line, bit for bit, in either mode.
//  4. With -checkpoint (coordinator only), write a cluster-wide domain
//     checkpoint to the directory.
//  5. Over the back half, issue -queries one-mote NOW/PAST queries (30%
//     PAST) with targets drawn from a source seeded by -seed, checking
//     each answer against ground truth; with -every, a standing all-motes
//     NOW query delivers one fleet snapshot per that much virtual time.
//  6. Report energy, latency, answer provenance and store counters for
//     the motes this process hosts; a coordinator adds per-site frame
//     counters and cluster health.
//
// prestod exits 1 if an answer misses the precision promise, the
// aggregate loses a site, or the standing query delivers nothing.
//
// -join starts a cluster site: it must be launched with the SAME
// deployment flags (enforced by a config fingerprint at join time),
// receives its domain window from the coordinator, and serves until the
// coordinator closes the session. It takes no driver flags.
//
// With -http the process becomes a serving tier instead of running
// steps 2-6: after bootstrap it mounts the internal/serve HTTP/JSON API
// (POST /v1/query, /healthz, /statsz, /metricsz; ?explain=1 returns the
// per-query trace) on the address, advances the virtual clock to the
// -days horizon in the background (-http-pace paces it against the wall
// clock), then keeps serving with the clock frozen until SIGINT/SIGTERM.
// -slow-query logs queries slower than the given wall time with their
// trace; -pprof mounts net/http/pprof under /debug/pprof/.
//
// Shutdown is graceful in every mode: a signal stops the schedule and
// reports early, SSE streams end with a shutdown event, in-flight
// queries drain, and cluster sites are stopped.
//
// Deployment flags: -shards > 1 partitions the network into that many
// concurrent simulation domains. -wired mirrors every domain's
// confirmed data onto proxy 0 (the wired replica) and offers remote
// motes' NOW queries to it first; it is off by default in both modes,
// because replication timing is wall-clock dependent. -store selects
// each domain's archive backend, "mem" or "flash" (a log-structured
// archive on simulated NAND), and -aging how flash compaction ages old
// segments: "wavelet" (age-tiered multi-resolution summaries, e.g.
// wavelet:1/2,1/4,1/8) or "uniform" (widened-mean coarsening).
// -max-staleness attaches a per-query freshness bound to the query mix
// and the standing query. -scenario boots a scenario spec (a JSON file
// from presto-scenario, or a built-in preset) instead of the individual
// deployment flags; cluster processes booted from the same spec
// fingerprint-match, and -sites defaults to the spec's site count.
//
// Flags the chosen mode would silently ignore are a usage error: see
// flagRules.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	rtrace "runtime/trace"
	"syscall"
	"time"

	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/energy"
	"presto/internal/gen"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/simtime"
	"presto/internal/stats"
	"presto/internal/wire"
)

// deployment is the one seam prestod drives: an in-process network
// (single) or a cluster coordinator. Network is the part of the
// deployment this process hosts.
type deployment interface {
	serve.Engine
	Client() *core.Client
	Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) error
	Run(ctx context.Context, d time.Duration) error
	Network() *core.Network
	Close()
}

// network names core.Network so single can embed it without its field
// colliding with the Network method.
type network = core.Network

// single adapts an in-process network to the deployment seam.
type single struct{ *network }

func (s single) Bootstrap(_ context.Context, trainFor time.Duration, bins int, delta float64) error {
	_, err := s.network.Bootstrap(trainFor, bins, delta)
	return err
}

// Run advances the network by d; a signal takes effect once d has run.
func (s single) Run(ctx context.Context, d time.Duration) error {
	s.network.Run(d)
	return ctx.Err()
}

func (s single) Network() *core.Network { return s.network }

// options holds every command-line flag.
type options struct {
	proxies, motes, shards, days, queries, sites int
	delta, precision, loss, httpQPS              float64
	seed                                         int64
	store, aging, listen, join, ckptDir          string
	scenario, http, rtTrace                      string
	maxStale, every, quantum, httpPace, slowQ    time.Duration
	wired, pprof, verbose                        bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.IntVar(&o.proxies, "proxies", 2, "number of proxies")
	fs.IntVar(&o.motes, "motes", 10, "motes per proxy")
	fs.IntVar(&o.shards, "shards", 1, "concurrent simulation domains (clamped to proxies)")
	fs.IntVar(&o.days, "days", 7, "days of virtual time to run")
	fs.Float64Var(&o.delta, "delta", 1.0, "model-driven push threshold")
	fs.IntVar(&o.queries, "queries", 200, "NOW/PAST queries to issue over the back half of the run")
	fs.Float64Var(&o.precision, "precision", 1.0, "query precision (error tolerance)")
	fs.Float64Var(&o.loss, "loss", 0.02, "radio loss probability")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.store, "store", "mem", "archival store backend per domain: mem or flash")
	fs.StringVar(&o.aging, "aging", "wavelet", "flash compaction aging policy: wavelet[:tiers] or uniform")
	fs.DurationVar(&o.maxStale, "max-staleness", 0, "per-query freshness bound for the query mix and standing query (0 = unbounded); PAST windows whose tail overlaps now honor it too")
	fs.DurationVar(&o.every, "every", 0, "standing query period of virtual time (0 = no continuous query)")
	fs.StringVar(&o.listen, "listen", "", "cluster coordinator: TCP listen address (host:port; :0 picks a port)")
	fs.StringVar(&o.join, "join", "", "cluster site: coordinator address to join")
	fs.IntVar(&o.sites, "sites", 2, "cluster total process count for -listen, coordinator included")
	fs.DurationVar(&o.quantum, "quantum", cluster.DefaultQuantum, "cluster advance-lease quantum of virtual time")
	fs.StringVar(&o.ckptDir, "checkpoint", "", "cluster coordinator: write a cluster-wide domain checkpoint to this directory after the mid-run aggregate")
	fs.BoolVar(&o.wired, "wired", false, "mirror every domain onto proxy 0 (wired replica; over the transport in cluster mode)")
	fs.StringVar(&o.scenario, "scenario", "", "boot a scenario instead of the flag-built deployment: a spec JSON file from presto-scenario, or a built-in preset name; overrides -proxies/-motes/-shards/-days/-delta/-loss/-seed/-store/-aging/-wired and the trace generator")
	fs.StringVar(&o.http, "http", "", "serve the HTTP/JSON query API on this address after bootstrap (e.g. :8080) instead of the built-in schedule")
	fs.Float64Var(&o.httpQPS, "http-qps", 0, "per-tenant admission rate for the HTTP tier in queries/sec (0 = unlimited)")
	fs.DurationVar(&o.httpPace, "http-pace", 0, "virtual time advanced per wall second in -http mode (0 = as fast as possible, then freeze at the horizon); standing queries need an advancing clock")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http address")
	fs.StringVar(&o.rtTrace, "runtime-trace", "", "write a runtime/trace capture of the run to this file")
	fs.DurationVar(&o.slowQ, "slow-query", 0, "-http mode: log queries slower than this wall time with their trace (0 = off)")
	fs.BoolVar(&o.verbose, "v", false, "print per-mote details")
}

// flagRules lists the flag combinations prestod refuses because the
// chosen mode would silently ignore one of them: flag needs partner
// (need) or must not come with it (!need).
var flagRules = []struct {
	flag, partner string
	need          bool
}{
	{"checkpoint", "listen", true},
	{"sites", "listen", true},
	{"quantum", "listen", true},
	{"http-qps", "http", true},
	{"http-pace", "http", true},
	{"pprof", "http", true},
	{"slow-query", "http", true},
	{"listen", "join", false},
	{"http", "join", false},
	{"checkpoint", "join", false},
	{"every", "join", false},
	{"queries", "join", false},
}

// checkFlags applies flagRules to the names of the flags given on the
// command line.
func checkFlags(set map[string]bool) error {
	for _, r := range flagRules {
		if !set[r.flag] || set[r.partner] == r.need {
			continue
		}
		if r.need {
			return fmt.Errorf("-%s needs -%s", r.flag, r.partner)
		}
		return fmt.Errorf("-%s cannot be combined with -%s", r.flag, r.partner)
	}
	return nil
}

// HTTP tier connection bounds: a client that trickles its request
// headers, or parks an idle keep-alive connection, is cut off instead of
// holding the connection forever. Response writes stay unbounded so SSE
// streams can run as long as their query.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prestod: ")
	os.Exit(run())
}

func run() int {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set); err != nil {
		fmt.Fprintf(os.Stderr, "prestod: %v\n", err)
		flag.Usage()
		return 2
	}

	if o.rtTrace != "" {
		f, err := os.Create(o.rtTrace)
		if err != nil {
			log.Fatal(err)
		}
		if err := rtrace.Start(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}

	// One signal context for every mode: SIGINT/SIGTERM begin a graceful
	// drain instead of killing the process mid-round.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var cfg core.Config
	var scenarioName string
	if o.scenario != "" {
		spec, err := loadScenarioSpec(o.scenario)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := scenario.Generate(spec)
		if err != nil {
			log.Fatal(err)
		}
		cfg = sc.Config
		o.days = spec.Deployment.Days
		scenarioName = spec.Name
		// Every process booting the same spec builds the same universe —
		// cluster sites fingerprint-match the coordinator by construction.
		if !set["sites"] {
			o.sites = spec.Deployment.Sites
		}
		fmt.Printf("scenario: %q (seed %d), %d motes, deployment digest %s\n",
			spec.Name, spec.Seed, spec.Deployment.Motes(), sc.DeploymentDigest()[:12])
	} else {
		genCfg := gen.DefaultTempConfig()
		genCfg.Sensors = o.proxies * o.motes
		genCfg.Days = o.days
		genCfg.Seed = o.seed
		traces, err := gen.Temperature(genCfg)
		if err != nil {
			log.Fatal(err)
		}

		cfg = core.DefaultConfig()
		cfg.Seed = o.seed
		cfg.Proxies = o.proxies
		cfg.MotesPerProxy = o.motes
		cfg.Shards = o.shards
		cfg.Delta = o.delta
		cfg.Radio.LossProb = o.loss
		cfg.Traces = traces
		cfg.WiredFirstProxy = o.wired
		cfg.StoreBackend = o.store
		cfg.StoreAging = o.aging
	}

	if o.join != "" {
		runClusterSite(ctx, o.join, cfg)
		return 0
	}

	// The one mode decision: everything below drives the seam.
	var dep deployment
	if o.listen != "" {
		co, err := cluster.Listen(cluster.TCP{}, o.listen, cfg, cluster.Options{Sites: o.sites, Quantum: o.quantum})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cluster: listening on %s, waiting for %d site(s)\n", co.Addr(), o.sites-1)
		if err := co.AcceptSites(ctx); err != nil {
			co.Close()
			log.Fatal(err)
		}
		dep = co
	} else {
		n, err := core.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		dep = single{n}
	}
	defer dep.Close()

	lay := dep.Network().Layout()
	store := cfg.StoreBackend
	if store == "" {
		store = "mem" // core's default backend
	}
	fmt.Printf("deployment: %d proxies x %d motes, %d days, delta=%.2f, loss=%.1f%%, %d shard(s), %s store, wired=%v\n",
		cfg.Proxies, cfg.MotesPerProxy, o.days, cfg.Delta, cfg.Radio.LossProb*100, lay.Shards, store, cfg.WiredFirstProxy)

	trainFor := min(36*time.Hour, time.Duration(o.days)*24*time.Hour/2)
	fmt.Printf("bootstrap: streaming for %v, then training seasonal-anchored models...\n", trainFor)
	if err := dep.Bootstrap(ctx, trainFor, 48, cfg.Delta); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap: %d models trained and shipped\n", len(lay.AllMotes()))
	remaining := time.Duration(o.days)*24*time.Hour - trainFor

	if o.http != "" {
		scfg := serve.Config{Admit: serve.AdmitConfig{QPS: o.httpQPS}, Scenario: scenarioName, SlowQuery: o.slowQ}
		if err := serveHTTP(ctx, dep, scfg, &o, remaining); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deployment: done after %v of virtual time\n", dep.Now())
		return 0
	}
	if !drive(ctx, dep, cfg, &o, remaining) {
		return 1
	}
	return 0
}

// loadScenarioSpec resolves -scenario: an existing JSON file wins,
// otherwise the value names a built-in preset.
func loadScenarioSpec(v string) (scenario.Spec, error) {
	if _, err := os.Stat(v); err == nil {
		return scenario.LoadFile(v)
	}
	return scenario.Preset(v)
}

// runClusterSite joins a cluster and serves its assigned domain window
// until the coordinator hangs up — or a signal asks the site to leave.
func runClusterSite(ctx context.Context, addr string, cfg core.Config) {
	fmt.Printf("cluster: joining coordinator at %s\n", addr)
	if err := cluster.Serve(ctx, cluster.TCP{}, addr, cfg); err != nil {
		if ctx.Err() != nil {
			fmt.Println("cluster: signal received; site shut down")
			return
		}
		log.Fatal(err)
	}
	fmt.Println("cluster: coordinator closed the session; site done")
}

// tally collects the back half's query-mix and standing-query outcomes.
type tally struct {
	latencies, errs []float64
	bySource        map[proxy.Source]int
	snapshots       int
}

// drive runs steps 2-6 of the schedule on a bootstrapped deployment and
// reports false if a check failed. A signal stops the schedule early and
// falls through to the report.
func drive(ctx context.Context, dep deployment, cfg core.Config, o *options, remaining time.Duration) bool {
	interrupted := false
	advance := func(d time.Duration) {
		if interrupted {
			return
		}
		if err := dep.Run(ctx, d); err != nil {
			if ctx.Err() == nil {
				log.Fatal(err)
			}
			interrupted = true
		}
	}
	c := dep.Client()
	quiet := remaining / 2
	back := remaining - quiet
	advance(quiet)

	// The trailing aggregate over every mote: one scatter frame per
	// remote site, partials merged with honest bounds. Full precision so
	// runs in either mode diff bit for bit.
	if !interrupted {
		res, err := c.QueryOne(ctx, query.Spec{
			Type: query.Agg, Agg: query.Mean, Precision: o.precision, Trailing: 2 * time.Hour,
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.Err != nil || res.Count == 0 {
			log.Fatalf("aggregate unusable: err=%v count=%d", res.Err, res.Count)
		}
		for _, se := range res.SiteErrs {
			fmt.Fprintf(os.Stderr, "prestod: site %d failed the round: %v\n", se.Site, se.Err)
		}
		if len(res.SiteErrs) > 0 {
			return false
		}
		fmt.Printf("cluster agg: mean=%.17g bound=%.17g count=%d at=%v\n",
			res.Value, res.ErrBound, res.Count, res.At)
	}

	// -checkpoint: capture every domain at this lease instant (sites are
	// quiescent between Runs) and persist it for warm failover / re-join.
	if co, ok := dep.(*cluster.Coordinator); ok && o.ckptDir != "" && !interrupted {
		ck, err := co.CheckpointDomains(ctx)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		if err := ck.WriteDir(o.ckptDir); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		bytes := 0
		for _, b := range ck.Blobs {
			bytes += len(b)
		}
		fmt.Printf("cluster checkpoint: %d domains (%d bytes) at %v written to %s\n",
			len(ck.Blobs), bytes, ck.At, o.ckptDir)
	}

	// Back half. The standing query spans all of it and closes itself at
	// its horizon; a signal closes it early.
	t := tally{bySource: map[proxy.Source]int{}}
	var stream *core.ResultStream
	snapsDone := make(chan struct{})
	if o.every > 0 && !interrupted {
		var err error
		stream, err = c.Query(ctx, query.Spec{
			Type: query.Now, Precision: o.precision, MaxStaleness: o.maxStale,
			Continuous: &query.Continuous{Every: o.every, Until: back},
		})
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			defer close(snapsDone)
			for snap := range stream.Results() {
				if snap.Failed == 0 {
					t.snapshots++
				}
			}
		}()
	} else {
		close(snapsDone)
	}

	// The query mix: one-mote NOW/PAST specs spread evenly over the back
	// half, targets drawn from their own seeded source so the mix never
	// perturbs the simulation's randomness.
	rng := rand.New(rand.NewSource(cfg.Seed))
	ids := dep.Network().Layout().AllMotes()
	perQuery := back / time.Duration(o.queries+1)
	for i := 0; i < o.queries && !interrupted; i++ {
		advance(perQuery)
		id := ids[rng.Intn(len(ids))]
		spec := query.Spec{Type: query.Now, Select: query.SelectMotes(id), Precision: o.precision, MaxStaleness: o.maxStale}
		if rng.Float64() < 0.3 { // 30% PAST point queries
			at := max(dep.Now()-simtime.Time(time.Duration(1+rng.Intn(600))*time.Minute), 0)
			// PAST queries carry the bound too: it bites only when the
			// window tail overlaps the staleness horizon.
			spec.Type, spec.T0, spec.T1 = query.Past, at, at
		}
		// The in-flight query runs on its own context so a signal lets
		// it drain.
		set, err := c.QueryOne(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		if len(set.Results) != 1 {
			log.Fatalf("query for mote %d answered %d results (%d failed)", id, len(set.Results), set.Failed)
		}
		res := set.Results[0]
		t.latencies = append(t.latencies, res.Latency().Seconds()*1000)
		t.bySource[res.Answer.Source]++
		if v, ok := res.Answer.Value(); ok {
			if truth, err := dep.Network().Truth(id, res.Answer.Entries[0].T); err == nil {
				t.errs = append(t.errs, math.Abs(v-truth))
			}
		}
	}
	advance(back - perQuery*time.Duration(o.queries))
	if interrupted {
		fmt.Println("\nsignal received: draining and reporting early")
		if stream != nil {
			stream.Close()
		}
	}
	<-snapsDone
	return report(dep, cfg, o, &t, interrupted)
}

// report prints the run's outcome — the network section for the motes
// this process hosts, the coordinator's per-site lines — and checks the
// precision promise and the standing query.
func report(dep deployment, cfg core.Config, o *options, t *tally, interrupted bool) bool {
	n := dep.Network()
	ids := n.MoteIDs()
	lay := n.Layout()
	fmt.Printf("\n=== after %v of virtual time (%d of %d motes hosted here) ===\n", dep.Now(), len(ids), len(lay.AllMotes()))
	total := n.TotalMoteEnergy()
	perMoteDay := total.Total() / float64(len(ids)) / float64(o.days)
	fmt.Printf("mote energy: %.2f J/day/mote (%s)\n", perMoteDay, total.String())
	fmt.Printf("est. lifetime on 2xAA: %.0f days\n",
		energy.Lifetime(energy.AABatteryJ, perMoteDay, 24*time.Hour).Hours()/24)

	p50, _ := stats.Median(t.latencies)
	p95, _ := stats.Quantile(t.latencies, 0.95)
	fmt.Printf("query latency: p50=%.1f ms p95=%.1f ms over %d queries\n", p50, p95, len(t.latencies))
	fmt.Printf("answers: cache=%d model=%d pull=%d timeout=%d archive=%d\n",
		t.bySource[proxy.FromCache], t.bySource[proxy.FromModel], t.bySource[proxy.FromPull],
		t.bySource[proxy.FromTimeout], t.bySource[proxy.FromArchive])
	submitted, replicaServed, bridgeSent, bridgeDelivered := n.EngineStats()
	fmt.Printf("engine: %d submitted, %d replica-served, %d replica-bypassed (stale), bridge %d/%d sent/delivered\n",
		submitted, replicaServed, n.ReplicaBypassed(), bridgeSent, bridgeDelivered)
	ss := n.StoreStats()
	bs := n.StoreBackendStats()
	fmt.Printf("store: %d proxy-routed, %d replica-offered (%d stale-rejected), %d archive-served (%d stale-declined)\n",
		ss.Routed, ss.ReplicaRouted, ss.ReplicaStale, ss.ArchiveServed, ss.ArchiveStale)
	fmt.Printf("archive backend: %d records (%d appends, %d dropped), %d range reads, read-amp %.2f",
		bs.Records, bs.Appends, bs.Dropped, bs.QueryRanges, bs.ReadAmp())
	if cfg.StoreBackend == "flash" {
		fmt.Printf(", %d pages written, %d pages read, %d compactions (%s aging, %d wavelet chunks)",
			bs.PagesWritten, bs.PagesRead, bs.Compactions, cfg.StoreAging, bs.WaveletChunks)
		if bs.RecordsSkipped > 0 {
			fmt.Printf(", chunk directory skipped %d records (read-amp %.2f without it)",
				bs.RecordsSkipped, bs.ReadAmpNoDir())
		}
	}
	fmt.Println()
	if len(t.errs) > 0 {
		lo, hi, _ := stats.MinMax(t.errs)
		fmt.Printf("answer error vs ground truth: mean=%.3f max=%.3f (min %.3f); precision=%.2f\n",
			stats.Mean(t.errs), hi, lo, o.precision)
	}
	if o.verbose {
		fmt.Println("\nper-mote detail:")
		for _, id := range ids {
			st, _ := n.MoteStats(id)
			m, _ := n.MoteEnergy(id)
			fmt.Printf("  mote %3d: samples=%d pushes=%d pulls=%d energy=%.2f J\n",
				id, st.Samples, st.Pushes, st.PullsServed, m.Total())
		}
	}
	if co, ok := dep.(*cluster.Coordinator); ok {
		for i, st := range co.SiteStats() {
			fmt.Printf("cluster frames: site %d sent=%d recv=%d scatter=%d partials=%d bridge=%d\n",
				i+1, st.Sent, st.Recv, st.SentKind[wire.FrameScatter],
				st.RecvKind[wire.FramePartials], st.RecvKind[wire.FrameBridge])
		}
		h := co.ClusterHealth()
		fmt.Printf("cluster health: %d/%d sites alive, %d migration(s), %d re-join(s)\n",
			h.SitesAlive, len(h.Sites), h.Migrations, h.Rejoins)
	}

	ok := true
	if o.every > 0 {
		fmt.Printf("standing query: %d fleet snapshots delivered (one per %v of virtual time, 1 submission each)\n",
			t.snapshots, o.every)
		if t.snapshots == 0 && !interrupted {
			fmt.Fprintln(os.Stderr, "prestod: standing query delivered no snapshots")
			ok = false
		}
	}
	// Pull answers are exact and model answers bounded by delta <=
	// precision; the slack covers float32 wire encoding. Cross-domain
	// replica answers can additionally lag by up to the pushing mote's
	// own threshold (heterogeneous scenarios override it per mote).
	slack := o.precision + 0.101
	if lay.Shards > 1 {
		maxDelta := cfg.Delta
		for _, d := range cfg.MoteDeltas {
			maxDelta = max(maxDelta, d)
		}
		slack += maxDelta
	}
	for _, e := range t.errs {
		if e > slack {
			fmt.Fprintf(os.Stderr, "prestod: answer error %.3f exceeded precision %.2f\n", e, o.precision)
			return false
		}
	}
	return ok
}

// serveHTTP fronts the deployment with the internal/serve HTTP tier and
// blocks until the signal context fires, then drains gracefully: SSE
// streams end with a shutdown event, in-flight one-shot queries finish
// through http.Server.Shutdown, and only then does the caller tear the
// deployment down. The virtual clock advances in small chunks until the
// horizon so standing queries keep firing while requests land, then
// freezes and the tier keeps serving (deterministically, for cache
// demos) until a signal.
func serveHTTP(ctx context.Context, dep deployment, cfg serve.Config, o *options, horizon time.Duration) error {
	srv := serve.New(dep, cfg)
	lis, err := net.Listen("tcp", o.http)
	if err != nil {
		return err
	}
	fmt.Printf("http: serving on %s (virtual clock at %v, advancing %v)\n", lis.Addr(), dep.Now(), horizon)
	handler := srv.Handler()
	if o.pprof {
		// The serve mux owns everything else; pprof rides the same
		// listener so one curl target covers metrics and profiles.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		handler = mux
		fmt.Println("http: pprof mounted at /debug/pprof/")
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(lis) }()

	// Advance the clock to the horizon, then leave it frozen. drvErr
	// carries a failure that is not the drain's own cancellation.
	drvCtx, drvCancel := context.WithCancel(ctx)
	defer drvCancel()
	drvErr := make(chan error, 1)
	drvDone := make(chan struct{})
	go func() {
		defer close(drvDone)
		const chunk = 10 * time.Minute // virtual time per advance slice
		var tick <-chan time.Time
		if o.httpPace > 0 {
			// Real-time pacing: one chunk of virtual time per
			// chunk/pace of wall time, so standing queries fire at a
			// human-watchable rate instead of the horizon flashing by.
			t := time.NewTicker(time.Duration(float64(chunk) / float64(o.httpPace) * float64(time.Second)))
			defer t.Stop()
			tick = t.C
		}
		for left := horizon; left > 0 && drvCtx.Err() == nil; left -= chunk {
			if err := dep.Run(drvCtx, min(chunk, left)); err != nil {
				if drvCtx.Err() == nil {
					drvErr <- fmt.Errorf("http: advancing virtual time: %w", err)
				}
				return
			}
			if tick != nil {
				select {
				case <-tick:
				case <-drvCtx.Done():
				}
			}
		}
	}()

	var bail error
	select {
	case <-ctx.Done():
		fmt.Println("http: signal received; draining")
	case err := <-httpErr:
		bail = fmt.Errorf("http: serve: %w", err)
	case bail = <-drvErr:
	}

	srv.Close() // end SSE streams first so Shutdown cannot hang on them
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && bail == nil {
		bail = fmt.Errorf("http: shutdown: %w", err)
	}
	drvCancel()
	<-drvDone
	if bail == nil && len(drvErr) > 0 {
		bail = <-drvErr
	}

	st := srv.Snapshot()
	fmt.Printf("http: served %d queries (%d errors), cache %d/%d hit (ratio %.2f), %d SSE streams / %d rounds, %d throttled\n",
		st.Queries, st.Errors, st.Cache.Hits, st.Cache.Hits+st.Cache.Misses, st.CacheHitRatio,
		st.SSE.Streams, st.SSE.Rounds, st.Admit.Throttled)
	return bail
}
