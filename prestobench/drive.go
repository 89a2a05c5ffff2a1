package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/serve"
)

// requestTimeout bounds one HTTP exchange; a reply slower than this is
// a failed operation.
const requestTimeout = 20 * time.Second

// bench is one workload's live harness: the deployment, the HTTP front
// door on a loopback port, the oracle, and (traced runs) the span
// recorder wired around the handler and the engine.
type bench struct {
	wl  string
	dep *deployment
	srv *serve.Server
	hs  *http.Server
	url string
	orc *oracle
	rec *recorder // nil on untraced runs

	served chan error
}

// startBench fronts the deployment with serve.Server over real loopback
// HTTP. A traced bench wraps the engine and the handler so spans can be
// recorded around the calls into them.
func startBench(wl string, dep *deployment, traced bool) (*bench, error) {
	b := &bench{wl: wl, dep: dep, orc: newOracle(dep.truth, dep.interval, allMotes()), served: make(chan error, 1)}
	eng := dep.eng
	if traced {
		b.rec = newRecorder()
		eng = tracedEngine{Engine: dep.eng, rec: b.rec}
	}
	b.srv = serve.New(eng, serve.Config{})
	handler := b.srv.Handler()
	if traced {
		handler = b.rec.wrapHandler(handler)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + lis.Addr().String()
	b.hs = &http.Server{Handler: handler}
	go func() { b.served <- b.hs.Serve(lis) }()
	return b, nil
}

// stop shuts the front door down and waits for it.
func (b *bench) stop() {
	b.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // a hung connection only delays exit; the serve error below is what matters
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("note: http server: %v\n", err)
	}
}

// newClient returns a client with its own single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// phase is what one measured phase observed. Times are milliseconds.
// Operations are queries, ingest chunks and scrapes; each is attempted
// once and may fail.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	length    time.Duration
	lat       []float64 // per answered query, from due (open loop) or send (closed loop)
	done      []float64 // per answered query, completion in seconds since start
	scrape    []float64 // per /metricsz scrape, from due
	ingest    []float64 // per chunk advance, from due
	lease     []float64 // per chunk advance, from its start (no lateness)
	genLate   []float64 // how late a sleeping generator woke for its due time
	queries   int       // queries sent
	others    int       // ingest chunks and scrapes attempted
	failed    int       // failed operations of every kind
	qFailed   int       // failed queries
	failures  map[string]int
	backlog   int // queries due before the end but never started
	ingestErr error
	seconds   float64 // measured wall time
	cpu       float64 // process CPU seconds over the measured time (user + system)
	peakHeap  uint64  // live heap after marking, bytes

	chk *checker
}

// closedLoopRate sizes a closed loop's latency buffers: above the
// hot-repeat rate seen on the reference VM, so they rarely grow.
const closedLoopRate = 10000

// newPhase preallocates the phase's sample buffers for the schedule it
// will run, so the harness's retained state stays small and fixed.
func newPhase(s schedule, length time.Duration, closed bool) *phase {
	q := len(s.reqs)
	if closed {
		q = int(closedLoopRate * length.Seconds())
	}
	return &phase{
		length:   length,
		failures: map[string]int{},
		lat:      make([]float64, 0, q),
		done:     make([]float64, 0, q),
		scrape:   make([]float64, 0, len(s.scrapes)),
		ingest:   make([]float64, 0, len(s.ingest)),
		lease:    make([]float64, 0, len(s.ingest)),
		genLate:  make([]float64, 0, len(s.reqs)+len(s.scrapes)+len(s.ingest)),
	}
}

// bufferBytes is what the phase's sample buffers retain.
func (p *phase) bufferBytes() int {
	n := 0
	for _, xs := range [][]float64{p.lat, p.done, p.scrape, p.ingest, p.lease, p.genLate} {
		n += 8 * cap(xs)
	}
	return n
}

// fail books a failed operation; query tells whether it was a query.
func (p *phase) fail(query bool, reason string) {
	p.mu.Lock()
	p.failed++
	if query {
		p.qFailed++
	}
	p.failures[reason]++
	p.mu.Unlock()
}

// attempt books one attempted ingest chunk or scrape.
func (p *phase) attempt() {
	p.mu.Lock()
	p.others++
	p.mu.Unlock()
}

func (p *phase) add(dst *[]float64, v float64) {
	p.mu.Lock()
	*dst = append(*dst, v)
	p.mu.Unlock()
}

// attempted counts operations of every kind.
func (p *phase) attempted() int { return p.queries + p.others }

// answered is the number of queries that produced a usable answer.
func (p *phase) answered() int { return p.queries - p.qFailed }

// verdict is a run's JSON line without its metrics: correct when no
// operation of any phase failed and no answer was malformed.
func verdict(tl tally, phases ...*phase) *output {
	out := &output{}
	for _, p := range phases {
		out.Attempted += p.attempted()
		out.Failed += p.failed
	}
	out.Correct = out.Failed == 0 && tl.Problems == 0
	return out
}

// sleepUntil waits for due and reports how late it woke; ok is false
// when due had already passed (the loop was busy, not the generator).
func sleepUntil(due time.Time) (late time.Duration, ok bool) {
	d := time.Until(due)
	if d <= 0 {
		return 0, false
	}
	time.Sleep(d)
	return time.Since(due), true
}

// runPhase drives one measured phase: the query load (a closed loop
// cycling s.reqs, or open-loop arrivals at their due times), the scrape
// loop and (live-ingest) the pace loop, all from one schedule. side,
// when set, runs alongside the load until the phase ends (the traced
// run's probes). Replies are checked as they arrive, or after the phase
// when deferCheck is set, so that checking takes no CPU from a closed
// loop measuring capacity.
func (b *bench) runPhase(ctx context.Context, s schedule, length time.Duration, closed, explain, deferCheck bool, side func(stop <-chan struct{})) (*phase, error) {
	p := newPhase(s, length, closed)
	cpu0 := processCPU()
	held := 0
	if deferCheck {
		held = len(s.reqs)
	}
	var err error
	if p.chk, err = newChecker(b.orc, b.wl == hotRepeat && !explain, held, p); err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(length)
	p.start = start
	stop := make(chan struct{})
	var side2 sync.WaitGroup
	side2.Add(2)
	go func() { defer side2.Done(); p.peakHeap = heapSampler(stop) }()
	go func() { defer side2.Done(); scrapeLoop(p, b.url, s.scrapes, start, end) }()
	if side != nil {
		side2.Add(1)
		go func() { defer side2.Done(); side(stop) }()
	}
	if len(s.ingest) > 0 {
		side2.Add(1)
		go func() { defer side2.Done(); ingestLoop(ctx, p, s.ingest, start, end, b.dep.advance) }()
	}
	if closed {
		b.closedLoop(p, s.reqs, end, explain)
	} else {
		b.openLoop(p, s.reqs, start, end, explain)
	}
	p.seconds = time.Since(start).Seconds()
	close(stop)
	side2.Wait()
	p.cpu = processCPU() - cpu0
	p.chk.finish()
	return p, nil
}

// closedLoop runs `clients` workers, each sending its next request as
// soon as the previous reply has been read, cycling through reqs.
func (b *bench) closedLoop(p *phase, reqs []request, end time.Time, explain bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(end) {
				r := &reqs[int(next.Add(1)-1)%len(reqs)]
				b.exchange(c, p, r, time.Now(), explain)
			}
		}()
	}
	wg.Wait()
}

// openLoop dispatches each request at its due time onto a queue served
// by `clients` workers, one connection each. Latency runs from the due
// time, so a stall is charged to every request it delays.
func (b *bench) openLoop(p *phase, reqs []request, start, end time.Time, explain bool) {
	queue := make(chan int, len(reqs)) // sized to the schedule: dispatch never blocks
	go func() {
		defer close(queue)
		for i := range reqs {
			due := start.Add(reqs[i].due)
			if !due.Before(end) {
				return
			}
			if late, ok := sleepUntil(due); ok {
				p.add(&p.genLate, msOf(late.Nanoseconds()))
			} else {
				p.add(&p.genLate, msOf(time.Since(due).Nanoseconds()))
			}
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range queue {
				if time.Now().After(end) {
					p.mu.Lock()
					p.backlog++
					p.mu.Unlock()
					continue
				}
				b.exchange(c, p, &reqs[i], start.Add(reqs[i].due), explain)
			}
		}()
	}
	wg.Wait()
}

// exchange sends one query and books its latency from `from`; the reply
// goes to the checker.
func (b *bench) exchange(c *http.Client, p *phase, r *request, from time.Time, explain bool) {
	p.mu.Lock()
	p.queries++
	p.mu.Unlock()
	url := b.url + "/v1/query"
	if explain {
		url += "?explain=1"
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		p.fail(true, "request")
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Presto-Tenant", r.tenant)
	sp := b.rec.begin(0, 0, "http.roundtrip")
	if b.rec != nil {
		hreq.Header.Set(spanHeader, strconv.FormatUint(sp.req, 10)+"/"+strconv.FormatUint(sp.id, 10))
	}
	resp, err := c.Do(hreq)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			p.fail(true, "timeout")
		} else {
			p.fail(true, "transport")
		}
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		p.fail(true, "transport")
		return
	}
	if resp.StatusCode != http.StatusOK {
		p.fail(true, fmt.Sprintf("http_%d", resp.StatusCode))
		return
	}
	now := time.Now()
	p.mu.Lock()
	p.lat = append(p.lat, msOf(now.Sub(from).Nanoseconds()))
	p.done = append(p.done, now.Sub(p.start).Seconds())
	p.mu.Unlock()
	p.chk.submit(r, body, explain)
}

// scrapeLoop GETs url's /metricsz on its own connection at a fixed
// period, timing each scrape from its due time. A transport error or a
// non-200 reply is a failed operation.
func scrapeLoop(p *phase, url string, dues []time.Duration, start, end time.Time) {
	c := newClient()
	defer c.CloseIdleConnections()
	for _, off := range dues {
		due := start.Add(off)
		if !due.Before(end) {
			return
		}
		if late, ok := sleepUntil(due); ok {
			p.add(&p.genLate, msOf(late.Nanoseconds()))
		}
		p.attempt()
		resp, err := c.Get(url + "/metricsz")
		if err != nil {
			p.fail(false, "scrape_transport")
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			p.fail(false, "scrape_transport")
		case resp.StatusCode != http.StatusOK:
			p.fail(false, fmt.Sprintf("scrape_http_%d", resp.StatusCode))
		default:
			p.add(&p.scrape, msOf(time.Since(due).Nanoseconds()))
		}
	}
}

// ingestLoop calls advance once per due time (prestod's -http-pace
// loop), timing each advance from its due time and from its own start.
// A failed advance is a failed operation, and it stops the clock: every
// later chunk due in the phase is booked as failed too, since the reads
// beside it no longer run against a moving clock.
func ingestLoop(ctx context.Context, p *phase, dues []time.Duration, start, end time.Time, advance func(context.Context) error) {
	for i, off := range dues {
		due := start.Add(off)
		if !due.Before(end) {
			return
		}
		if late, ok := sleepUntil(due); ok {
			p.add(&p.genLate, msOf(late.Nanoseconds()))
		}
		p.attempt()
		t := time.Now()
		if err := advance(ctx); err != nil {
			p.ingestErr = err
			p.fail(false, "ingest")
			for _, rest := range dues[i+1:] {
				if start.Add(rest).Before(end) {
					p.attempt()
					p.fail(false, "ingest_skipped")
				}
			}
			return
		}
		done := time.Now()
		p.add(&p.ingest, msOf(done.Sub(due).Nanoseconds()))
		p.add(&p.lease, msOf(done.Sub(t).Nanoseconds()))
	}
}

// processCPU is the CPU time this process has used, user and system,
// in seconds. The kernel does not charge it time the host stole.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapSampler polls the live heap (what the last GC left marked, so
// garbage awaiting collection does not count) every 10 ms until stop
// closes and returns the peak.
func heapSampler(stop <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

// checker decodes and checks replies off the load workers' path, so
// checking never delays the next request. A deferring checker holds the
// replies off the heap and checks them all in finish: checking as they
// arrive took about 40% of cold-scan's closed-loop throughput from the
// program on two cores.
type checker struct {
	orc  *oracle
	memo map[[sha256.Size]byte]bool // hot-repeat: replies already checked, by body digest (one goroutine only)
	p    *phase
	in   chan checkItem
	done chan struct{}

	deferred bool
	mu       sync.Mutex
	held     []checkItem
	arena    *arena

	routes []obs.Route    // explain routes of traced requests
	kept   []keptResult   // a sample of answers for the encode probes
	cache  map[string]int // explain cache state -> count
}

type checkItem struct {
	r       *request
	body    []byte
	explain bool
}

// keptResult is one answered request retained for the serial probes.
type keptResult struct {
	r   *request
	res query.SetResult
}

const keepResults = 64

func newChecker(orc *oracle, memo bool, held int, p *phase) (*checker, error) {
	c := &checker{
		orc:      orc,
		p:        p,
		cache:    map[string]int{},
		deferred: held > 0,
	}
	if memo && held == 0 {
		c.memo = map[[sha256.Size]byte]bool{}
	}
	if c.deferred {
		a, err := newArena()
		if err != nil {
			return nil, fmt.Errorf("reply arena: %w", err)
		}
		c.arena, c.held = a, make([]checkItem, 0, held)
	} else {
		c.in = make(chan checkItem, 1<<14) // absorbs bursts so workers never wait on checking
		c.done = make(chan struct{})
		go c.loop()
	}
	return c, nil
}

func (c *checker) submit(r *request, body []byte, explain bool) {
	it := checkItem{r: r, body: body, explain: explain}
	if c.deferred {
		it.body = c.arena.keep(body)
		c.mu.Lock()
		c.held = append(c.held, it)
		c.mu.Unlock()
		return
	}
	c.in <- it
}

// finish returns once every submitted reply has been checked.
func (c *checker) finish() {
	if c.deferred {
		// The phase is over: check on as many goroutines as there were
		// load clients.
		t := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(c.held); i += clients {
					c.check(c.held[i])
				}
			}()
		}
		wg.Wait()
		fmt.Printf("checked %d held replies (%.1f MB) in %.2f s\n", len(c.held), float64(c.arena.off)/(1<<20), time.Since(t).Seconds())
		c.held = nil
		if c.arena.spilled > 0 {
			fmt.Printf("note: %d reply bytes held on the heap: the reply arena was full\n", c.arena.spilled)
		}
		if err := c.arena.free(); err != nil {
			fmt.Printf("note: freeing the reply arena: %v\n", err)
		}
		return
	}
	close(c.in)
	<-c.done
}

// memoBytes estimates what the memo retains: a digest key, a flag and
// the map's per-entry overhead.
func (c *checker) memoBytes() int { return len(c.memo) * (sha256.Size + 16) }

func (c *checker) loop() {
	defer close(c.done)
	for it := range c.in {
		c.check(it)
	}
}

func (c *checker) check(it checkItem) {
	var key [sha256.Size]byte
	if c.memo != nil {
		key = sha256.Sum256(it.body)
		if c.memo[key] {
			return
		}
	}
	raw := it.body
	if it.explain {
		var env serve.ExplainBody
		if err := json.Unmarshal(it.body, &env); err != nil {
			c.p.fail(true, "decode")
			return
		}
		raw = env.Result
		c.mu.Lock()
		c.routes = append(c.routes, env.Trace.Routes...)
		c.cache[env.Cache]++
		c.mu.Unlock()
	}
	res, err := query.DecodeSetResultJSON(raw)
	switch {
	case err != nil:
		c.p.fail(true, "decode")
		return
	case res.Err != nil:
		c.p.fail(true, "answer_error")
		return
	case len(res.SiteErrs) > 0:
		c.p.fail(true, "site_error")
		return
	case res.Failed > 0:
		c.p.fail(true, "failed_motes")
		return
	}
	c.orc.check(it.r.spec, res)
	if c.memo != nil {
		c.memo[key] = true
	}
	c.mu.Lock()
	if len(c.kept) < keepResults {
		c.kept = append(c.kept, keptResult{r: it.r, res: res})
	}
	c.mu.Unlock()
}
