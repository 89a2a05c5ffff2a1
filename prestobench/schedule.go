package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/scenario"
	"presto/internal/simtime"
)

// Load shape. The open-loop rates sit well below what the program
// sustains on the 2-vCPU reference VM (~330 cold-scan questions/s with
// two connections; the pace loop keeps Coordinator.Run busy about a
// fifth of the time), so queues stay short and latency measures service,
// not queueing: on a host that steals 15-25% of the CPU, a cold-scan
// rate near half of capacity, or a pace loop busy a third of the time,
// made p50 latency swing 2-4x between runs. Each rate still yields at
// least 1000 samples in the latency phase of a 25 s run.
const (
	clients       = 2                     // load connections (nproc on the reference host)
	coldScanQPS   = 120.0                 // cold-scan Poisson arrival rate
	liveQPS       = 72.0                  // live-ingest Poisson arrival rate
	ingestPeriod  = 30 * time.Millisecond // wall time between chunk advances
	scrapePeriod  = 30 * time.Millisecond // wall time between /metricsz scrapes
	liveStaleness = 45 * time.Second      // max_staleness on live-ingest queries (< chunk)
	tenants       = 6
)

// The open-loop workloads measure in two phases: an open loop for
// latency over the first latencyShare of the run, then a closed loop of
// `clients` workers for capacity (throughput_qps) over the rest. An open
// loop answers what it is offered, so its rate says nothing about the
// program; the closed loop's does. capacityQPS sizes the closed loop's
// supply of distinct questions with room to spare (capacity is ~330/s on
// cold-scan), so it never runs out and starts hitting the serve cache.
const (
	latencyShare = 0.6
	capacityQPS  = 2000
)

// phases splits a run of the given length into its latency (open loop)
// and capacity (closed loop) phases. hot-repeat is one closed loop that
// gives both.
func phases(wl string, seconds int) (latency, capacity time.Duration) {
	length := time.Duration(seconds) * time.Second
	if wl == hotRepeat {
		return length, 0
	}
	latency = time.Duration(latencyShare * float64(length))
	return latency, length - latency
}

// request is one scheduled query: its due offset from the phase start
// (open loop only), tenant, JSON body and the spec the body encodes.
type request struct {
	due    time.Duration
	tenant string
	body   []byte
	spec   query.Spec
}

// schedule is a workload's full input: queries, plus the ingest and
// scrape due times of the open-loop side loops over the whole run, plus
// (open-loop workloads) the capacity phase's distinct questions.
// Everything is a pure function of (workload, seed, seconds).
type schedule struct {
	reqs     []request
	ingest   []time.Duration
	scrapes  []time.Duration
	capacity []request
}

// subRand derives an independent stream for one named component.
func subRand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// newRequest encodes a spec into a request.
func newRequest(due time.Duration, tenant string, spec query.Spec) (request, error) {
	body, err := query.EncodeSpecJSON(spec)
	if err != nil {
		return request{}, err
	}
	return request{due: due, tenant: tenant, body: body, spec: spec}, nil
}

// buildSchedule lays out a workload's inputs. histEnd is the virtual
// instant the warm history ends at (the parked clock on the read-only
// workloads).
func buildSchedule(wl string, seed int64, seconds int, histEnd simtime.Time) (schedule, error) {
	var s schedule
	var err error
	horizon := time.Duration(seconds) * time.Second
	latency, capacity := phases(wl, seconds)
	for t := time.Duration(0); t < horizon; t += scrapePeriod {
		s.scrapes = append(s.scrapes, t)
	}
	spare := make([]time.Duration, int(capacityQPS*capacity.Seconds()))
	switch wl {
	case hotRepeat:
		s.reqs, err = hotRequests(seed)
	case coldScan:
		// One draw, so the capacity questions are distinct from the
		// latency phase's too.
		arrivals := poisson(subRand(seed, "cold-arrivals"), coldScanQPS, latency)
		var all []request
		all, err = coldRequests(subRand(seed, "cold-scan"), append(arrivals, spare...), histEnd)
		if err == nil {
			s.reqs, s.capacity = all[:len(arrivals)], all[len(arrivals):]
		}
	case liveIngest:
		s.reqs, err = liveRequests(subRand(seed, "live-ingest"), poisson(subRand(seed, "live-arrivals"), liveQPS, latency))
		if err == nil {
			s.capacity, err = liveRequests(subRand(seed, "live-capacity"), spare)
		}
		for t := time.Duration(0); t < horizon; t += ingestPeriod {
			s.ingest = append(s.ingest, t)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", wl, hotRepeat, coldScan, liveIngest)
	}
	return s, err
}

// replaySet is a second, disjoint set of requests of the same shape,
// used by the traced run's serial layer probes so that they do not
// re-ask (and hit caches warmed by) the measured requests.
func replaySet(wl string, seed int64, n int, histEnd simtime.Time) ([]request, error) {
	arrivals := make([]time.Duration, n)
	switch wl {
	case hotRepeat:
		reqs, err := hotRequests(seed)
		if len(reqs) > n {
			reqs = reqs[:n]
		}
		return reqs, err
	case coldScan:
		return coldRequests(subRand(seed, "cold-replay"), arrivals, histEnd)
	default:
		return liveRequests(subRand(seed, "live-replay"), arrivals)
	}
}

// poisson draws the arrival offsets of a Poisson process over
// [0, horizon) conditioned on its expected count: rate*horizon uniform
// instants, sorted. Fixing the count keeps the offered load identical
// across seeds, so only the arrival pattern varies.
func poisson(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	n := int(rate * horizon.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(horizon)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hotRequests replays the campus scenario's own arrival mix (trailing
// AGGs, fleet and cohort NOWs, fixed windows, tight/loose pairs across
// tenants) as a closed-loop cycle.
func hotRequests(seed int64) ([]request, error) {
	spec, err := campusSpec(hotRepeat, 2)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	// A week of arrivals (~10k) rather than the preset's day (~1.4k):
	// the share of costly fleet NOWs then varies by about +-2.5% across
	// seeds instead of +-10%, and throughput with it.
	spec.Workload.Horizon = query.Dur(7 * 24 * time.Hour)
	arrivals, err := scenario.GenerateWorkload(spec)
	if err != nil {
		return nil, err
	}
	out := make([]request, 0, len(arrivals))
	for _, a := range arrivals {
		out = append(out, request{tenant: a.Tenant, body: a.SpecJSON, spec: a.Spec})
	}
	return out, nil
}

// bag draws from a fixed multiset without replacement, refilling and
// reshuffling when empty: every len(items) draws hold the multiset's
// exact proportions, so the question mix does not wander with the seed.
type bag struct {
	rng         *rand.Rand
	items, left []int
}

// newBag fills a bag with weights[i] copies of i.
func newBag(rng *rand.Rand, weights ...int) *bag {
	b := &bag{rng: rng}
	for i, w := range weights {
		for ; w > 0; w-- {
			b.items = append(b.items, i)
		}
	}
	return b
}

func (b *bag) next() int {
	if len(b.left) == 0 {
		b.left = append(b.left[:0], b.items...)
		b.rng.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	v := b.left[len(b.left)-1]
	b.left = b.left[:len(b.left)-1]
	return v
}

// uniform is a bag holding each of 0..n-1 once.
func uniform(rng *rand.Rand, n int) *bag {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return newBag(rng, w...)
}

// coldPrecisions straddle the fleet's push thresholds (1 for
// temperature, 10 for activity, 20 for traffic): tight ones force
// rendezvous, loose ones are answered from models.
var coldPrecisions = []float64{0.25, 0.5, 2, 5, 15, 40}

// coldRequests draws one distinct question per arrival: an AGG
// mean/max/min over the whole fleet or a 16-mote cohort, or a PAST over
// a 4-mote cohort, over a 1-24 h window inside the warm history.
// Windows align to 5 minutes so every mote's sample grid starts on the
// window edge.
func coldRequests(rng *rand.Rand, arrivals []time.Duration, histEnd simtime.Time) ([]request, error) {
	seen := map[string]bool{}
	out := make([]request, 0, len(arrivals))
	const step = 5 * time.Minute
	slots := int(time.Duration(histEnd) / step)
	kinds := newBag(rng, 6, 7, 7) // fleet AGG, cohort AGG, cohort PAST
	ops := uniform(rng, 3)
	tight := uniform(rng, len(coldPrecisions))
	loose := uniform(rng, len(coldPrecisions)-2)
	hours := uniform(rng, 24)
	bands := uniform(rng, 8)
	for _, at := range arrivals {
		for {
			spec := query.Spec{Precision: coldPrecisions[tight.next()]}
			switch kinds.next() {
			case 0:
				// Fleet-wide questions stay above the temperature
				// threshold: a tight one would pull the whole fleet's
				// window and archive it, and the mix would drift
				// towards archive hits within a run.
				spec.Type = query.Agg
				spec.Precision = coldPrecisions[2+loose.next()]
			case 1:
				spec.Type = query.Agg
				spec.Select = query.SelectMotes(cohort(rng, 16)...)
			default:
				spec.Type = query.Past
				spec.Select = query.SelectMotes(cohort(rng, 4)...)
			}
			if spec.Type == query.Agg {
				spec.Agg = []query.AggKind{query.Mean, query.Max, query.Min}[ops.next()]
			}
			length := 12 + hours.next()*12 + rng.Intn(12) // 1-24 h in 5-minute slots
			length = min(length, 24*12)
			// The window's end falls in one of 8 equal bands of its
			// possible range, drawn from a bag: the split between the
			// streamed (archived) first day and the model-driven
			// history stays the same across seeds.
			room := slots - length + 1
			band := bands.next()
			end := length + band*room/8 + rng.Intn(max(room/8, 1))
			spec.T0 = simtime.Time(time.Duration(end-length) * step)
			spec.T1 = simtime.Time(time.Duration(end) * step)
			req, err := newRequest(at, fmt.Sprintf("tenant-%d", rng.Intn(tenants)), spec)
			if err != nil {
				return nil, err
			}
			// Distinct shape, not just distinct body: the semantic cache
			// answers a looser ask from a tighter cached one.
			shape := fmt.Sprint(spec.Type, spec.Agg, spec.Select.Motes, spec.T0, spec.T1)
			if seen[shape] {
				continue
			}
			seen[shape] = true
			out = append(out, req)
			break
		}
	}
	return out, nil
}

// livePrecisions again straddle the push thresholds.
var livePrecisions = []float64{1, 2, 5, 25}

// liveRequests draws queries about the present while the clock moves:
// trailing AGGs over the fleet or a cohort, and cohort or fleet NOWs,
// all with a max_staleness shorter than one chunk. The bound makes most
// motes' snapshots stale, so each stale mote costs a rendezvous; fleet
// questions (256 rendezvous each) are kept rare so the load stays light.
func liveRequests(rng *rand.Rand, arrivals []time.Duration) ([]request, error) {
	out := make([]request, 0, len(arrivals))
	kinds := newBag(rng, 2, 8, 9, 1) // fleet AGG, cohort AGG, cohort NOW, fleet NOW
	precisions := uniform(rng, len(livePrecisions))
	ops := uniform(rng, 2)
	trailing := uniform(rng, 3)
	for _, at := range arrivals {
		spec := query.Spec{
			Precision:    livePrecisions[precisions.next()],
			MaxStaleness: liveStaleness,
		}
		switch kinds.next() {
		case 0:
			spec.Type = query.Agg
		case 1:
			spec.Type = query.Agg
			spec.Select = query.SelectMotes(cohort(rng, 16)...)
		case 2:
			spec.Type = query.Now
			spec.Select = query.SelectMotes(cohort(rng, 4)...)
		default:
			spec.Type = query.Now
		}
		if spec.Type == query.Agg {
			spec.Agg = []query.AggKind{query.Mean, query.Max}[ops.next()]
			spec.Trailing = []time.Duration{30 * time.Minute, time.Hour, 2 * time.Hour}[trailing.next()]
		}
		req, err := newRequest(at, fmt.Sprintf("tenant-%d", rng.Intn(tenants)), spec)
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

// cohort picks k distinct motes, ascending.
func cohort(rng *rand.Rand, k int) []radio.NodeID {
	picked := rng.Perm(fleet)[:k]
	ids := make([]radio.NodeID, k)
	for i, mi := range picked {
		ids[i] = radio.NodeID(mi + 1)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// digest attests the schedule: sha256 over every query's due time,
// tenant and body, then every ingest and scrape due time, then the
// capacity questions.
func (s schedule) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range s.reqs {
		put(int64(r.due))
		h.Write([]byte(r.tenant))
		h.Write([]byte{0})
		h.Write(r.body)
		h.Write([]byte{0})
	}
	h.Write([]byte("ingest"))
	for _, t := range s.ingest {
		put(int64(t))
	}
	h.Write([]byte("scrape"))
	for _, t := range s.scrapes {
		put(int64(t))
	}
	h.Write([]byte("capacity"))
	for _, r := range s.capacity {
		h.Write([]byte(r.tenant))
		h.Write([]byte{0})
		h.Write(r.body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
