package core

// The declarative client facade and the engine's scatter-gather stage.
//
// A query.Spec targets a *set* of motes; the engine fans it out as one
// command per owning simulation domain (not one per mote), each domain
// worker folds its motes' answers — served by the domain store's
// replica/archive/proxy path — into a query.Partial, and a merge stage
// combines the per-domain partials into one answer with honest combined
// error bounds. An N-mote aggregate spanning any number of domains
// therefore costs exactly one engine submission. The one exception to
// the scatter is a one-shot NOW spec naming a single remote mote, which
// the wired replica may answer first (submitReplicaFirst).
//
// Continuous specs re-arm on the simulation clock: a self-re-arming
// wakeup event on the anchor domain's kernel scatters a round at each
// exact period instant, and a merge goroutine assembles the rounds in
// order and pushes them down the stream. Multi-domain workers drain
// their command queues at bounded virtual-time intervals while advancing
// (see shard.advance), so the other domains' contributions to a round
// execute in the middle of one long Run instead of piling up behind it.

import (
	"context"
	"errors"
	"fmt"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// specRuns resolves a spec's selector against the deployment and groups
// the target motes by owning shard (see groupRuns). Only a selector
// without an explicit list reads the fleet-wide mote list.
func (n *Network) specRuns(spec query.Spec) ([]shardRun, error) {
	var all []radio.NodeID
	if len(spec.Select.Motes) == 0 {
		all = n.MoteIDs()
	}
	targets := spec.Select.Resolve(all)
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: %w", query.ErrNoMotes)
	}
	return n.groupRuns(targets)
}

// gatherSpec runs on a shard worker: it issues every target mote's query
// against the domain's unified store and folds the answers into one
// RoundPartial, delivered on parts when the last answer lands. Answers
// that need a mote rendezvous resolve while the worker settles (or
// during the remaining chunks of an in-progress advance); the per-domain
// pull coalescing applies across the motes of the round as usual.
// When tr is non-nil the domain's store annotates every routing
// decision onto it while the round's queries execute on this worker
// (and, for answers that resolve later via rendezvous, when they land);
// nil tr — the common case — adds one predictable branch per query.
func gatherSpec(sh *shard, spec query.Spec, motes []radio.NodeID, parts chan<- query.RoundPartial, tr *obs.Trace) {
	agg := spec.Type == query.Agg
	if tr != nil {
		sh.st.SetTrace(tr, sh.domain)
		defer sh.st.SetTrace(nil, 0)
	}
	sp := &query.RoundPartial{Domain: sh.domain, Partial: query.NewPartialFor(spec)}
	// Aggregate push-down: motes whose spans the archive covers within
	// precision fold straight into the partial (store.ExecuteFold) — no
	// Answer materialization, no Result, no pending-query bookkeeping.
	// Only the leftovers pay the proxy path below.
	var fallback []radio.NodeID
	if agg {
		for _, m := range motes {
			done, err := sh.st.ExecuteFold(spec.QueryFor(m), &sp.Partial)
			switch {
			case err != nil:
				sp.Failed++
			case done:
			default:
				fallback = append(fallback, m)
			}
		}
	} else {
		fallback = motes
	}
	if len(fallback) == 0 {
		parts <- *sp
		return
	}
	remaining := len(fallback)
	settled := func() {
		remaining--
		if remaining == 0 {
			parts <- *sp
		}
	}
	onDone := func(r query.Result, ok bool) {
		switch {
		case !ok:
			sp.Failed++
		case agg:
			sp.Partial.ObserveResult(r)
		default:
			sp.Results = append(sp.Results, r)
		}
		settled()
	}
	// Fold-first: an AGG mote the proxy's cache and model cover folds
	// into the partial as it executes, in the order its answer would
	// have been observed; only motes that wait on a rendezvous keep the
	// callback. One shared callback and a pendingQuery slab instead of a
	// closure + allocation per mote.
	var part *query.Partial
	if agg {
		part = &sp.Partial
	}
	pqs := make([]pendingQuery, len(fallback))
	for i, m := range fallback {
		pqs[i].fn = onDone
		if sh.submit(spec.QueryFor(m), &pqs[i], part) {
			settled()
		}
	}
}

// GatherLocal executes one bound round against the local domains owning
// the given motes and blocks for their folded partials, tagged by global
// domain index. It is how a cluster site serves a scatter frame: the
// per-mote answers are folded here, in the process that owns the data
// (push-down), and only what this returns crosses the transport. The
// spec must already be concrete (BindWindow applied — a trailing window
// must resolve against the coordinator's clock, not each site's); motes
// not hosted by this process are an error, since the coordinator's
// layout and the site's must agree.
func (n *Network) GatherLocal(spec query.Spec, motes []radio.NodeID) ([]query.RoundPartial, error) {
	parts, expect, err := n.GatherStart(spec, motes, 0, nil)
	if err != nil {
		return nil, err
	}
	out := make([]query.RoundPartial, 0, expect)
	for i := 0; i < expect; i++ {
		out = append(out, <-parts)
	}
	query.SortRoundPartials(out)
	return out, nil
}

// GatherStart enqueues one concrete round against the local domains
// owning motes and returns the channel their folded partials arrive on,
// plus how many to expect (one per owning domain, in arrival order —
// sort by Domain before merging). It is GatherLocal's non-blocking half:
// the cluster coordinator uses it to enqueue a round's local gathers
// before issuing the next advance lease, so the round executes while the
// window advances instead of quiescing the engine.
//
// When at is ahead of a domain's clock, that domain's fold runs as a
// kernel event at exactly that instant — a round scheduled mid-advance
// executes at its nominal time, not wherever the worker happens to be.
// at <= the domain clock (or zero) folds at the current clock, which is
// the converged floor after an advance.
//
// A non-nil tr collects each target mote's routing decision as the
// round executes — the cluster site threads the scatter frame's trace
// context through here so the decisions ride back in the partials.
func (n *Network) GatherStart(spec query.Spec, motes []radio.NodeID, at simtime.Time, tr *obs.Trace) (<-chan query.RoundPartial, int, error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	if spec.Trailing > 0 {
		return nil, 0, errors.New("core: GatherLocal needs a concrete window (apply Spec.BindWindow at the coordinator)")
	}
	if len(motes) == 0 {
		return nil, 0, fmt.Errorf("core: %w", query.ErrNoMotes)
	}
	runs, err := n.groupRuns(motes)
	if err != nil {
		return nil, 0, err
	}
	n.queriesSubmitted.Add(1)
	parts := make(chan query.RoundPartial, len(runs))
	for _, g := range runs {
		s, ms := g.s, g.motes
		fn := func(sh *shard) { gatherSpec(sh, spec, ms, parts, tr) }
		if at > 0 {
			gather := fn
			fn = func(sh *shard) {
				if at > sh.sim.Now() {
					sh.sim.ScheduleAt(at, func() { gather(sh) })
					return
				}
				gather(sh)
			}
		}
		if !s.enqueue(shardCmd{fn: fn}) {
			parts <- query.RoundPartial{
				Domain: s.domain, Partial: query.NewPartialFor(spec), Failed: len(ms),
			}
		}
	}
	return parts, len(runs), nil
}

// shardRun is one owning domain's slice of a round's target motes.
type shardRun struct {
	s     *shard
	motes []radio.NodeID
}

// groupRuns groups target motes by owning shard. Resolved mote lists are
// ascending and domains partition the id space contiguously, so a
// single pass over the list finds each domain's run without a map — and
// the runs alias the input, so the common case allocates only the run
// slice. An out-of-order list (an explicit selector like Motes(9, 2))
// falls back to map grouping, preserving selector order within groups.
func (n *Network) groupRuns(motes []radio.NodeID) ([]shardRun, error) {
	runs := make([]shardRun, 0, 4)
	start := 0
	cur, err := n.shardFor(motes[0])
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(motes); i++ {
		if motes[i] < motes[i-1] {
			return n.groupRunsUnsorted(motes)
		}
		s, err := n.shardFor(motes[i])
		if err != nil {
			return nil, err
		}
		if s != cur {
			for _, g := range runs {
				if g.s == s {
					// Non-contiguous partition: a shard's motes must land
					// in one group (one partial per domain), so runs can't
					// represent this list.
					return n.groupRunsUnsorted(motes)
				}
			}
			runs = append(runs, shardRun{s: cur, motes: motes[start:i]})
			cur, start = s, i
		}
	}
	return append(runs, shardRun{s: cur, motes: motes[start:]}), nil
}

func (n *Network) groupRunsUnsorted(motes []radio.NodeID) ([]shardRun, error) {
	groups := make(map[*shard][]radio.NodeID)
	order := make([]*shard, 0, 4)
	for _, m := range motes {
		s, err := n.shardFor(m)
		if err != nil {
			return nil, err
		}
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], m)
	}
	runs := make([]shardRun, 0, len(order))
	for _, s := range order {
		runs = append(runs, shardRun{s: s, motes: groups[s]})
	}
	return runs, nil
}

// specRound is one in-flight round of a spec: its sequence number, the
// virtual instant it fired at, the spec as bound for this round (a
// trailing window resolves to a fresh [at-d, at] each round), and the
// channel its per-domain partials arrive on (buffered to the domain
// count, so workers never block).
type specRound struct {
	seq    int
	at     simtime.Time
	spec   query.Spec
	parts  chan query.RoundPartial
	expect int
}

// newSpecRound allocates a round and scatters it: the calling shard (if
// any) gathers inline — a continuous round fires on the anchor's kernel
// and snapshots that domain at the exact round instant — and every other
// owning domain gets one command. Domains that cannot accept work
// (engine closed) contribute a failed partial immediately.
func (n *Network) newSpecRound(spec query.Spec, runs []shardRun, seq int, at simtime.Time, self *shard, tr *obs.Trace) *specRound {
	n.queriesSubmitted.Add(1)
	spec = spec.BindWindow(at)
	rs := &specRound{seq: seq, at: at, spec: spec, parts: make(chan query.RoundPartial, len(runs)), expect: len(runs)}
	for _, g := range runs {
		if g.s == self {
			gatherSpec(g.s, spec, g.motes, rs.parts, tr)
			continue
		}
		motes := g.motes
		if !g.s.enqueue(shardCmd{fn: func(sh *shard) { gatherSpec(sh, spec, motes, rs.parts, tr) }}) {
			rs.parts <- query.RoundPartial{
				Domain: g.s.domain, Partial: query.NewPartialFor(spec), Failed: len(motes),
			}
		}
	}
	return rs
}

// mergeRound blocks for every domain's partial and hands them to the
// query package's merge stage (domain-ascending, so the fold is
// bit-identical to a cluster's two-level merge of the same domains).
// Workers always deliver — queries that can never complete fail their
// callbacks instead of wedging — so this terminates.
func mergeRound(rs *specRound) query.SetResult {
	parts := make([]query.RoundPartial, 0, rs.expect)
	for i := 0; i < rs.expect; i++ {
		parts = append(parts, <-rs.parts)
	}
	return query.MergeRounds(rs.spec, rs.seq, rs.at, parts)
}

// SubmitSpec posts a declarative set query to the engine — the one way
// into a Network. The returned channel yields one SetResult for a
// one-shot spec, then closes; a Continuous spec yields a result every
// spec period of virtual time until ctx is cancelled (or the Until
// horizon passes), then closes. Each round is a single engine
// submission regardless of how many motes or domains it spans.
//
// Cancellation is prompt and leak-free: the driver goroutine exits on
// ctx.Done even when no receiver drains the channel.
func (n *Network) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// An explain/slow-query trace rides the context; nil otherwise.
	tr := obs.TraceFrom(ctx)
	if target := n.replicaTarget(spec); target != nil {
		return n.submitReplicaFirst(spec, target, tr)
	}
	runs, err := n.specRuns(spec)
	if err != nil {
		return nil, err
	}
	// Fail fast after Close (Close shuts every shard down). A Close
	// racing a submitted round is still safe: the round's motes are
	// reported in SetResult.Failed instead.
	if n.shards[0].isClosed() {
		return nil, ErrClosed
	}
	out := make(chan query.SetResult, 1)
	if spec.Continuous == nil {
		// The round binds to the submission instant (SetResult.At) and is
		// queued on its domains before SubmitSpec returns, so specs
		// submitted back to back reach each worker in submission order.
		if tr != nil { // gate the Sprintf, not just the span: untraced rounds must not allocate
			tr.Span("scatter", fmt.Sprintf("%d domains", len(runs)))
		}
		rs := n.newSpecRound(spec, runs, 0, n.Now(), nil, tr)
		go func() {
			defer close(out)
			res := mergeRound(rs)
			if tr != nil {
				tr.Span("merge", fmt.Sprintf("%d results, %d failed", len(res.Results), res.Failed))
			}
			select {
			case out <- res:
			case <-ctx.Done():
			}
		}()
		return out, nil
	}

	// Standing query. The anchor domain's kernel (the one owning the
	// lowest target mote) is the metronome: a self-re-arming wakeup event
	// fires every spec period of virtual time and scatters a round at
	// that exact instant — the anchor's own motes gather inline, other
	// domains by command — so the round cadence tracks the simulation
	// clock no matter how fast wall-clock Run outpaces the consumer. A
	// merge goroutine assembles the rounds in order and delivers them
	// with backpressure; kernels never block on it. Virtual time standing
	// still (no Run in flight) means no new rounds — no new data can
	// exist either.
	cont := *spec.Continuous
	anchor := n.anchorShard(runs)
	maxRounds := 0
	if cont.Until > 0 {
		// The rounds whose instants fall at or before the Until horizon.
		maxRounds = int(cont.Until / cont.Every)
		if maxRounds == 0 {
			close(out)
			return out, nil
		}
	}
	// In-flight rounds awaiting merge. The buffer bounds memory when the
	// simulation sprints far ahead of the consumer; a full buffer skips
	// rounds (keeping sequence numbers dense) rather than stalling any
	// kernel. fire is the channel's only sender and runs on the anchor
	// worker, so the length check makes its send non-blocking, and it can
	// close the channel when a bounded stream's horizon passes — the
	// merge side then terminates even if backpressure skipped rounds.
	rounds := make(chan *specRound, 256)
	started := 0 // rounds scattered (anchor-worker state)
	fired := 0   // nominal instants reached, skips included
	var fire func(s *shard)
	fire = func(s *shard) {
		if ctx.Err() != nil {
			return // cancelled: stop re-arming; the merge side is gone
		}
		if len(rounds) < cap(rounds) {
			rounds <- n.newSpecRound(spec, runs, started, s.sim.Now(), s, nil)
			started++
		}
		fired++
		if maxRounds == 0 || fired < maxRounds {
			s.sim.Schedule(cont.Every, func() { fire(s) })
		} else {
			close(rounds) // horizon reached: no further sends, ever
		}
	}
	if !anchor.enqueue(shardCmd{fn: func(s *shard) {
		s.sim.Schedule(cont.Every, func() { fire(s) })
	}}) {
		return nil, ErrClosed
	}
	go func() {
		defer close(out)
		for {
			var rs *specRound
			var ok bool
			select {
			case <-ctx.Done():
				return
			case <-anchor.quit:
				return // engine closed: the stream dies with it
			case rs, ok = <-rounds:
				if !ok {
					return // bounded stream: horizon passed, all rounds merged
				}
			}
			res := mergeRound(rs)
			select {
			case out <- res:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// anchorShard picks the metronome domain for a continuous spec: the one
// owning the lowest target mote id, so the choice is deterministic.
func (n *Network) anchorShard(runs []shardRun) *shard {
	anchor, best := runs[0].s, runs[0].motes[0]
	for _, g := range runs[1:] {
		if g.motes[0] < best {
			anchor, best = g.s, g.motes[0]
		}
	}
	return anchor
}

// replicaTarget returns the owning shard of the one mote a spec targets
// when the spec is eligible for the wired replica — a one-shot NOW
// naming a single mote owned by a domain other than the replica's, in a
// deployment that serves remote motes from the replica — and nil
// otherwise. It reads the selector directly, before resolution, so the
// common single-mote query copies no mote list and groups nothing.
func (n *Network) replicaTarget(spec query.Spec) *shard {
	sel := spec.Select
	if !n.replicaFirst || spec.Type != query.Now || spec.Continuous != nil || len(sel.Motes) != 1 {
		return nil
	}
	m := sel.Motes[0]
	si, ok := n.moteShard[m]
	if !ok || n.shards[si].domain == 0 || (sel.Where != nil && !sel.Where(m)) {
		return nil
	}
	return n.shards[si]
}

// submitReplicaFirst is SubmitSpec's cross-domain NOW step: the query is
// offered to the wired replica on shard 0 first, and only what the
// replica cannot answer within precision is forwarded to the owning
// shard. Scatter rounds never take this step — a set snapshot wants the
// authoritative data, and its per-domain partials cannot depend on
// another domain's replica decision. The SetResult is delivered by
// whichever worker settles the query, with no goroutine of its own.
//
// A query carrying a freshness bound (MaxStaleness > 0) bypasses the
// replica when its snapshot cannot meet it: the replica's newest
// confirmed observation for the mote is compared against the owning
// domain's clock (lock-free snapshot), and any undrained bridge traffic
// for the replica's domain also marks it stale. Bypassed queries settle
// in the owning domain, where the managing proxy enforces the bound end
// to end — paying a mote rendezvous if its own snapshot is too old.
//
// A non-nil tr records the replica decision (replica-hit or
// stale-bypass) and, for forwarded queries, the owning proxy's decision,
// exactly as the scatter path annotates its routes.
func (n *Network) submitReplicaFirst(spec query.Spec, target *shard, tr *obs.Trace) (<-chan query.SetResult, error) {
	rq := &replicaQuery{
		n: n, target: target, q: spec.QueryFor(spec.Select.Motes[0]), tr: tr,
		res: query.SetResult{At: n.Now()},
		out: make(chan query.SetResult, 1),
	}
	n.queriesSubmitted.Add(1)
	if !n.shards[0].enqueue(shardCmd{fn: rq.decide}) {
		return nil, ErrClosed
	}
	return rq.out, nil
}

// replicaQuery is one query in flight through submitReplicaFirst, held
// in a single allocation: the decision, the forward and the delivery are
// its methods.
type replicaQuery struct {
	n      *Network
	target *shard
	q      query.Query
	tr     *obs.Trace
	res    query.SetResult
	one    [1]query.Result // backs res.Results
	out    chan query.SetResult
	pq     pendingQuery
}

// decide runs on the replica's worker (shard 0).
func (rq *replicaQuery) decide(s *shard) {
	n, q := rq.n, rq.q
	// The owning domain's clock, read lock-free at check time (not at
	// submission — the owner may advance while this query queues): the
	// replica's mirrored data carries owning-domain timestamps, so this
	// is the reference the staleness check needs.
	ownerNow := rq.target.sim.NowSnapshot()
	if q.MaxStaleness > 0 &&
		(s.bridge.PendingFor(0, q.Mote) > 0 || !s.wired.FreshWithin(q.Mote, ownerNow, q.MaxStaleness)) {
		n.replicaBypassed.Add(1)
		rq.tr.Route(int64(q.Mote), s.domain, obs.RouteStaleBypass)
		rq.forward()
		return
	}
	if a, ok := s.wired.QueryLocal(q.Mote, s.sim.Now(), q.Precision); ok {
		n.replicaServed.Add(1)
		rq.tr.Route(int64(q.Mote), s.domain, obs.RouteReplicaHit)
		rq.deliver(query.Result{Query: q, Answer: a}, true)
		return
	}
	rq.forward()
}

// forward hands the query to the owning shard, whose store annotates the
// managing proxy's decision onto the trace.
func (rq *replicaQuery) forward() {
	rq.pq.fn = rq.deliver
	if !rq.target.enqueue(shardCmd{fn: rq.settle}) {
		rq.deliver(query.Result{}, false) // owning shard shut down mid-forward
	}
}

// settle runs on the owning shard's worker.
func (rq *replicaQuery) settle(s *shard) {
	if rq.tr != nil {
		s.st.SetTrace(rq.tr, s.domain)
		defer s.st.SetTrace(nil, 0)
	}
	s.submit(rq.q, &rq.pq, nil)
}

// deliver sends the query's SetResult; it runs exactly once, on whichever
// worker settled the query.
func (rq *replicaQuery) deliver(r query.Result, ok bool) {
	if ok {
		rq.one[0] = r
		rq.res.Results = rq.one[:]
	} else {
		rq.res.Failed = 1
	}
	rq.out <- rq.res
	close(rq.out)
}

// ---------------------------------------------------------------------------
// Client facade

// SpecSubmitter is the engine seam the Client facade sits on: anything
// that can scatter a declarative spec and stream back merged rounds. The
// in-process Network implements it directly; cluster.Coordinator
// implements it over a transport — the same Client (and therefore the
// same application code) front-ends both.
type SpecSubmitter interface {
	SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error)
}

// Client is the user-facing query interface over a deployment: pose a
// declarative query.Spec, receive a ResultStream (or, for a one-shot
// spec, its single SetResult via QueryOne).
type Client struct {
	e SpecSubmitter
}

// NewClient wraps any spec engine — an in-process Network or a cluster
// Coordinator — in the query facade.
func NewClient(e SpecSubmitter) *Client { return &Client{e: e} }

// Client returns the deployment's query facade.
func (n *Network) Client() *Client { return NewClient(n) }

// ResultStream delivers the results of one Spec. One-shot specs deliver
// a single SetResult and close; Continuous specs deliver one per period
// until cancelled. Close (or cancelling the context passed to Query)
// tears the standing query down without leaking goroutines or waiters.
type ResultStream struct {
	ch     <-chan query.SetResult
	cancel context.CancelFunc
}

// Results is the delivery channel. It closes when the spec is done:
// after the single result of a one-shot spec, after the Until horizon of
// a bounded continuous spec, or after cancellation.
func (s *ResultStream) Results() <-chan query.SetResult { return s.ch }

// Next blocks for the next delivery. ok is false when the stream is
// exhausted or ctx is cancelled first.
func (s *ResultStream) Next(ctx context.Context) (res query.SetResult, ok bool) {
	select {
	case res, ok = <-s.ch:
		return res, ok
	case <-ctx.Done():
		return query.SetResult{}, false
	}
}

// Close cancels the spec. Safe to call multiple times; pending rounds
// are abandoned and the channel closes shortly after.
func (s *ResultStream) Close() { s.cancel() }

// Query poses a declarative spec against the deployment. The spec's
// selector resolves at submission time; every round costs one engine
// submission regardless of mote or domain count. Cancel ctx (or Close
// the stream) to tear down a standing query.
func (c *Client) Query(ctx context.Context, spec query.Spec) (*ResultStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	ch, err := c.e.SubmitSpec(ctx, spec)
	if err != nil {
		cancel()
		return nil, err
	}
	return &ResultStream{ch: ch, cancel: cancel}, nil
}

// QueryOne poses a one-shot spec and blocks for its single result.
func (c *Client) QueryOne(ctx context.Context, spec query.Spec) (query.SetResult, error) {
	if spec.Continuous != nil {
		return query.SetResult{}, errors.New("core: QueryOne on a continuous spec (use Query)")
	}
	ch, err := c.e.SubmitSpec(ctx, spec)
	if err != nil {
		return query.SetResult{}, err
	}
	select {
	case res, ok := <-ch:
		if !ok {
			return query.SetResult{}, errors.New("core: spec never completed")
		}
		return res, nil
	case <-ctx.Done():
		return query.SetResult{}, ctx.Err()
	}
}
