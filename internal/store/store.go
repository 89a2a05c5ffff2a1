// Package store provides PRESTO's unified logical view: "a single logical
// store across tens to hundreds of proxies and thousands of remote
// sensors" (Section 1).
//
// Users query the store by mote and time; the store routes each query to
// the managing proxy through the distributed index, preferring a wired
// replica when the managing proxy is wireless (Section 5's replication
// for low-latency responses), and merges cross-proxy detection streams in
// global time order. The abstraction hides which proxy owns which mote,
// whether the answer came from the archive backend, cache, model, or a
// mote archive pull, and the vagaries of the lossy sensor tier.
//
// Behind the routing layer every domain owns an archival Backend
// (backend.go): proxies copy each confirmed observation into it, PAST and
// AGG queries whose span the archive covers within precision are answered
// straight from it, and NOW queries under a freshness bound
// (query.Query.MaxStaleness) consult the replica's snapshot age before
// accepting a replica answer.
package store

import (
	"fmt"
	"time"

	"presto/internal/cache"
	"presto/internal/index"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// RoutingStats counts the store's routing and serving decisions.
type RoutingStats struct {
	Routed        uint64 // queries routed to managing proxies
	ReplicaRouted uint64 // queries offered to a wired replica
	ReplicaStale  uint64 // replica offers rejected by a per-query freshness bound
	ArchiveServed uint64 // range queries served whole from the archive backend
	// ArchiveStale counts range queries the archive covered but refused
	// to serve because the window tail overlaps "now" and the archive's
	// newest record for the mote is older than the query's MaxStaleness —
	// the proxy path must pay the rendezvous instead.
	ArchiveStale uint64
}

// Store is the unified logical store.
type Store struct {
	ix        *index.Index
	proxies   map[index.ProxyID]*proxy.Proxy
	backend   Backend
	intervals map[radio.NodeID]simtime.Time // per-mote sample interval

	// scratch is the reusable record buffer for the aggregate push-down
	// path (ExecuteFold); scratchVisit is the append closure bound once so
	// the per-query ScanRange call allocates nothing. Stores are confined
	// to their shard worker, so a single buffer suffices.
	scratch      []Record
	scratchVisit func(Record)
	// accepted is the reusable buffer slotCover compacts a covered span's
	// slot records into.
	accepted []Record

	// tr is the trace of the query currently executing, set by the owning
	// worker around Execute/ExecuteFold via SetTrace. Worker-confined like
	// scratch; nil (the overwhelmingly common case) costs one branch.
	tr       *obs.Trace
	trDomain int

	rstats RoutingStats
}

// New creates a store over an index with an in-memory archive backend.
func New(ix *index.Index) *Store {
	s := &Store{
		ix:        ix,
		proxies:   make(map[index.ProxyID]*proxy.Proxy),
		backend:   NewMemBackend(),
		intervals: make(map[radio.NodeID]simtime.Time),
	}
	s.scratchVisit = func(r Record) { s.scratch = append(s.scratch, r) }
	return s
}

// SetBackend swaps the archive backend (per-domain configuration; see
// core.Config.StoreBackend). Proxies attached before or after the swap
// archive into whatever backend is current. Passing nil disables
// archiving and archive-served answers.
func (s *Store) SetBackend(b Backend) { s.backend = b }

// Backend returns the current archive backend (nil when archiving is
// disabled).
func (s *Store) Backend() Backend { return s.backend }

// BackendStats returns the archive backend's counters (zero value when
// archiving is disabled).
func (s *Store) BackendStats() BackendStats {
	if s.backend == nil {
		return BackendStats{}
	}
	return s.backend.Stats()
}

// AddProxy attaches a proxy under an index id and wires its confirmed
// traffic into the domain archive.
func (s *Store) AddProxy(id index.ProxyID, p *proxy.Proxy, wired bool) {
	s.proxies[id] = p
	s.ix.RegisterProxy(id, wired)
	p.SetArchiveSink(func(m radio.NodeID, t simtime.Time, v, errBound float64) {
		if s.backend == nil {
			return
		}
		// An Append error means the device is full and archiving is
		// degraded; the backend accounts the actual records it sheds in
		// BackendStats.Dropped (the failed record itself may be retained
		// and served). The deployment keeps running either way — archive
		// coverage decays and queries fall back to the proxy path.
		_ = s.backend.Append(m, Record{T: t, V: v, ErrBound: errBound})
	})
}

// AdoptMote records that proxy id manages the mote (routing state) and the
// mote's sample interval (archive coverage checks).
func (s *Store) AdoptMote(m radio.NodeID, id index.ProxyID, sampleInterval time.Duration) {
	s.ix.RegisterMote(m, id)
	s.intervals[m] = simtime.Time(sampleInterval)
}

// Index exposes the underlying distributed index.
func (s *Store) Index() *index.Index { return s.ix }

// SetTrace installs (or, with nil, clears) the trace the next
// Execute/ExecuteFold calls annotate their routing decisions into,
// tagged with the caller's global domain index. Must be called from the
// worker that owns this store, bracketing the query it traces.
func (s *Store) SetTrace(tr *obs.Trace, domain int) { s.tr, s.trDomain = tr, domain }

// routeKindFor maps a proxy answer source onto the trace vocabulary.
func routeKindFor(src proxy.Source) obs.RouteKind {
	switch src {
	case proxy.FromCache:
		return obs.RouteCacheHit
	case proxy.FromModel:
		return obs.RouteModelHit
	case proxy.FromPull:
		return obs.RouteRendezvous
	case proxy.FromTimeout:
		return obs.RouteTimeout
	case proxy.FromSpatial:
		return obs.RouteSpatial
	case proxy.FromArchive:
		return obs.RouteArchiveHit
	}
	return obs.RouteNone
}

// replica returns the wired replica proxy for a mote's managing proxy,
// if one is attached.
func (s *Store) replica(pid index.ProxyID) (*proxy.Proxy, bool) {
	w, ok := s.ix.ReplicaFor(pid)
	if !ok {
		return nil, false
	}
	rp, ok := s.proxies[w]
	return rp, ok
}

// Execute routes and runs one mote's query — the engine's only per-mote
// executor; cb fires exactly once.
//
// NOW queries are offered to the managing proxy's wired replica first
// (Section 5's low-latency replication) — unless the query carries a
// freshness bound the replica's snapshot cannot meet, in which case it
// falls through to the managing proxy, which can pay the mote rendezvous.
//
// PAST and AGG queries are served from the domain's archive backend when
// the archived records cover every sample slot of the span within the
// requested precision; only uncovered spans reach the proxy query path.
// A freshness bound applies to them too when the window tail overlaps
// "now": an archive whose newest record for the mote is staler than
// MaxStaleness declines (ArchiveStale), and the proxy path pays the
// rendezvous (proxy.QueryRangeBounded).
func (s *Store) Execute(q query.Query, cb func(query.Result)) error {
	_, err := s.ExecuteInto(q, nil, cb)
	return err
}

// ExecuteInto is Execute for one mote of an aggregate round: with a
// non-nil part and an AGG query, an answer available without a
// rendezvous — from the archive, or from the proxy's cache and model —
// folds straight into part, in the order Execute's entries would have
// been observed, and ExecuteInto reports folded=true without calling cb.
// Answers that wait on a rendezvous, and every other query, take
// Execute's path: cb fires exactly once.
func (s *Store) ExecuteInto(q query.Query, part *query.Partial, cb func(query.Result)) (folded bool, err error) {
	pid, err := s.ix.ProxyFor(q.Mote)
	if err != nil {
		return false, err
	}
	if err := q.Validate(); err != nil {
		return false, err
	}
	fold := part != nil && q.Type == query.Agg
	switch q.Type {
	case query.Now:
		if rp, ok := s.replica(pid); ok {
			s.rstats.ReplicaRouted++ // replica was tried (the routing decision)
			if q.MaxStaleness > 0 && !rp.FreshWithin(q.Mote, rp.Now(), q.MaxStaleness) {
				s.rstats.ReplicaStale++
				s.tr.Route(int64(q.Mote), s.trDomain, obs.RouteStaleBypass)
				break // snapshot too stale: fall through to the managing proxy
			}
			if a, ok := rp.QueryLocal(q.Mote, rp.Now(), q.Precision); ok {
				s.tr.Route(int64(q.Mote), s.trDomain, obs.RouteReplicaHit)
				cb(query.Result{Query: q, Answer: a})
				return false, nil
			}
		}
	case query.Past, query.Agg:
		if fold {
			if s.archiveFold(q, pid, part) {
				return true, nil
			}
		} else if a, ok := s.archiveAnswer(q, pid); ok {
			s.rstats.ArchiveServed++
			s.tr.Route(int64(q.Mote), s.trDomain, obs.RouteArchiveHit)
			cb(resultFor(q, a))
			return false, nil
		}
	}
	p, ok := s.proxies[pid]
	if !ok {
		return false, fmt.Errorf("store: proxy %d not attached", pid)
	}
	s.rstats.Routed++
	if fold && p.FoldRange(q.Mote, q.T0, q.T1, q.Precision, q.MaxStaleness, part) {
		s.tr.Route(int64(q.Mote), s.trDomain, obs.RouteCacheHit)
		return true, nil
	}
	if s.tr != nil {
		// The proxy decides cache/model/rendezvous, possibly after a pull
		// resolves; wrap cb so the decision lands on the trace when it is
		// actually made. The closure allocates only on the traced path.
		tr, dom, inner := s.tr, s.trDomain, cb
		cb = func(r query.Result) {
			tr.Route(int64(q.Mote), dom, routeKindFor(r.Answer.Source))
			inner(r)
		}
	}
	executeProxy(p, q, cb)
	return false, nil
}

// executeProxy runs a validated query on its managing proxy, which
// answers from cache or model or pays a mote rendezvous; cb fires
// exactly once, possibly after the rendezvous resolves.
func executeProxy(p *proxy.Proxy, q query.Query, cb func(query.Result)) {
	switch q.Type {
	case query.Now:
		if q.MaxStaleness > 0 {
			p.QueryNowBounded(q.Mote, q.Precision, q.MaxStaleness, func(a proxy.Answer) {
				cb(query.Result{Query: q, Answer: a})
			})
			return
		}
		p.QueryNow(q.Mote, q.Precision, func(a proxy.Answer) {
			cb(query.Result{Query: q, Answer: a})
		})
	case query.Past, query.Agg:
		// QueryRangeBounded without a bound is exactly QueryRange; the
		// bound only bites when the window tail overlaps "now".
		p.QueryRangeBounded(q.Mote, q.T0, q.T1, q.Precision, q.MaxStaleness, func(a proxy.Answer) {
			cb(resultFor(q, a))
		})
	}
}

// resultFor wraps a per-mote answer in its Result, computing the
// aggregate for AGG queries and flagging an empty window.
func resultFor(q query.Query, a proxy.Answer) query.Result {
	r := query.Result{Query: q, Answer: a}
	if q.Type == query.Agg {
		r.AggValue = query.Aggregate(q.Agg, a)
		if len(a.Entries) == 0 {
			r.Err = query.ErrEmptyAggregate
		}
	}
	return r
}

// archiveRecords runs the archive-serving gates for a range query and,
// when they pass, fetches the candidate records around [T0-step, T1+step]
// — into the store's reusable scratch when the backend can scan, else
// through the allocating QueryRange. Returns ok=false when the archive
// must decline (no backend, unknown interval, stale tail, uncoverable
// span, or nothing archived).
func (s *Store) archiveRecords(q query.Query, pid index.ProxyID) ([]Record, simtime.Time, bool) {
	if s.backend == nil {
		return nil, 0, false
	}
	step := s.intervals[q.Mote]
	if step <= 0 {
		return nil, 0, false
	}
	// A freshness-bounded query whose window tail overlaps "now" (the tail
	// sits within MaxStaleness of the present) must not be answered from a
	// snapshot older than the bound: the archive may simply not have heard
	// about the tail yet, and the sample-slot coverage check below cannot
	// see records that never arrived. If the archive's newest record for
	// the mote is too old, decline — the managing proxy enforces the bound
	// end to end (QueryRangeBounded pays the rendezvous).
	if q.MaxStaleness > 0 {
		if p, ok := s.proxies[pid]; ok {
			now := p.Now()
			if q.T1+simtime.Time(q.MaxStaleness) >= now {
				if last, ok := s.backend.Latest(q.Mote); !ok || now-last.T > simtime.Time(q.MaxStaleness) {
					s.rstats.ArchiveStale++
					s.tr.Route(int64(q.Mote), s.trDomain, obs.RouteStaleBypass)
					return nil, 0, false
				}
			}
		}
	}
	// Cheap pre-check: if the newest archived record cannot cover the last
	// sample slot (the slot grid is T0-based, so it may stop short of T1),
	// the span is uncoverable — skip the (flash page-read) range scan
	// entirely.
	lastSlot := q.T0 + (q.T1-q.T0)/step*step
	if last, ok := s.backend.Latest(q.Mote); !ok || last.T+step/2 < lastSlot {
		return nil, 0, false
	}
	lo := q.T0 - step
	if lo < 0 {
		lo = 0
	}
	var recs []Record
	if sc, ok := s.backend.(RangeScanner); ok {
		s.scratch = s.scratch[:0]
		if err := sc.ScanRange(q.Mote, lo, q.T1+step, s.scratchVisit); err != nil {
			return nil, 0, false
		}
		recs = s.scratch
	} else {
		var err error
		recs, err = s.backend.QueryRange(q.Mote, lo, q.T1+step)
		if err != nil {
			return nil, 0, false
		}
	}
	if len(recs) == 0 {
		return nil, 0, false
	}
	return recs, step, true
}

// slotCover walks the T0-based sample-slot grid over time-sorted recs
// once, appending each slot's accepted record to dst (records shared by
// adjacent slots once), and returns the extended dst. ok is false as soon
// as any slot has no record within half a step meeting the precision.
// The materializing and folding archive paths both read the accepted
// records it returns, in order, so the fold's float accumulation is
// bit-identical to folding the materialized entries.
func slotCover(dst, recs []Record, t0, t1, step simtime.Time, precision float64) (accepted []Record, ok bool) {
	j := 0
	prevT := simtime.Time(-1)
	emitted := false
	for t := t0; t <= t1; t += step {
		// recs is time-sorted and t is increasing, so the first candidate
		// at or after t only ever moves forward (no per-slot binary search).
		for j < len(recs) && recs[j].T < t {
			j++
		}
		best := -1
		if j < len(recs) {
			best = j
		}
		if j > 0 && (best == -1 || t-recs[j-1].T <= recs[j].T-t) {
			best = j - 1
		}
		if best < 0 {
			return dst, false
		}
		r := recs[best]
		gap := r.T - t
		if gap < 0 {
			gap = -gap
		}
		if gap > step/2 || r.ErrBound > precision {
			return dst, false // slot uncovered: proxy path decides
		}
		if emitted && r.T == prevT {
			continue // off-grid T0: two adjacent slots share one record
		}
		emitted, prevT = true, r.T
		dst = append(dst, r)
	}
	return dst, true
}

// coveredRecords runs the archive gates and the slot walk for a range
// query, returning the accepted slot records (in the store's reusable
// buffer) when the archive covers the whole span.
func (s *Store) coveredRecords(q query.Query, pid index.ProxyID) ([]Record, bool) {
	recs, step, ok := s.archiveRecords(q, pid)
	if !ok {
		return nil, false
	}
	acc, ok := slotCover(s.accepted[:0], recs, q.T0, q.T1, step, q.Precision)
	s.accepted = acc
	return acc, ok
}

// archiveAnswer tries to satisfy a range query wholly from the archive
// backend: it succeeds when every sample slot in [T0, T1] has an archived
// record within half a sample interval whose error bound meets the
// precision.
func (s *Store) archiveAnswer(q query.Query, pid index.ProxyID) (proxy.Answer, bool) {
	acc, ok := s.coveredRecords(q, pid)
	if !ok {
		return proxy.Answer{}, false
	}
	entries := make([]cache.Entry, len(acc))
	for i, r := range acc {
		entries[i] = cache.Entry{T: r.T, V: r.V, Source: cache.Pulled, ErrBound: r.ErrBound}
	}
	now := simtime.Time(0)
	if p, ok := s.proxies[pid]; ok {
		now = p.Now()
	}
	return proxy.Answer{
		Mote:     q.Mote,
		Entries:  entries,
		Source:   proxy.FromArchive,
		IssuedAt: now,
		DoneAt:   now,
	}, true
}

// archiveFold folds an AGG query's archived slot records into p when the
// archive covers the whole span, reporting whether it did; p is untouched
// otherwise.
func (s *Store) archiveFold(q query.Query, pid index.ProxyID, p *query.Partial) bool {
	acc, ok := s.coveredRecords(q, pid)
	if !ok {
		return false
	}
	for _, r := range acc {
		p.Observe(r.V, r.ErrBound)
	}
	s.rstats.ArchiveServed++
	s.tr.Route(int64(q.Mote), s.trDomain, obs.RouteArchiveHit)
	return true
}

// ExecuteFold is the aggregate push-down fast path: when the archive can
// serve an AGG query's whole span within precision, the slot records
// fold straight into p — in exactly the order Execute's entry
// materialization plus ObserveResult would have produced, so the float
// accumulation is bit-identical — without building an Answer, a Result,
// or a per-mote callback. done=false with a nil error means the archive
// declined (and p is untouched): the caller must route the query through
// Execute or ExecuteInto and take the proxy path. A non-nil error is the
// same routing or validation failure Execute would have returned.
func (s *Store) ExecuteFold(q query.Query, p *query.Partial) (done bool, err error) {
	pid, err := s.ix.ProxyFor(q.Mote)
	if err != nil {
		return false, err
	}
	if err := q.Validate(); err != nil {
		return false, err
	}
	if q.Type != query.Agg {
		return false, nil
	}
	return s.archiveFold(q, pid, p), nil
}

// Detections returns the globally time-ordered detection stream in
// [t0, t1] across all proxies.
func (s *Store) Detections(t0, t1 simtime.Time) []index.Detection {
	return s.ix.ScanDetections(t0, t1)
}

// Publish adds a detection to the global index on behalf of a proxy.
func (s *Store) Publish(d index.Detection) error {
	return s.ix.PublishDetection(d)
}

// Stats reports the legacy routing counters: queries routed to managing
// proxies, and queries offered to a wired replica (whether or not the
// replica could answer within precision). See RoutingStats for the full
// set.
func (s *Store) Stats() (routed, replicaRouted uint64) {
	return s.rstats.Routed, s.rstats.ReplicaRouted
}

// RoutingStats reports the store's routing and serving counters.
func (s *Store) RoutingStats() RoutingStats { return s.rstats }
