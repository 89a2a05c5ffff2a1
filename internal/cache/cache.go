// Package cache implements the PRESTO proxy's per-sensor summary cache.
//
// Section 3: the cache "differs significantly from both memory caches as
// well as web caches in that the cached data is either a lossy view or a
// higher-level semantic event-based view of the sensor data", and it "can
// be progressively refined as more accurate data is obtained from the
// remote sensors or as queries on past data result in missing portions of
// the cache being filled up".
//
// Every entry carries provenance (pushed / pulled / predicted) and an
// error bound: pushed and pulled values are exact (bound 0 for raw pulls,
// the compression quantum for lossy pulls); predicted values carry the
// model-driven-push threshold delta as their bound. Queries use the bound
// to decide whether a cached or extrapolated answer meets the requested
// precision — the mechanism behind experiment E6.
package cache

import (
	"fmt"
	"sort"
	"time"

	"presto/internal/model"
	"presto/internal/simtime"
)

// Source says how an entry got into the cache.
type Source int

// Provenance values, ordered by authority: a higher source may replace a
// lower one at the same timestamp, never the reverse.
const (
	Predicted Source = iota // proxy model extrapolation
	Pulled                  // fetched from the mote archive (possibly lossy)
	Pushed                  // sent by the mote on model failure (exact)
)

// String names the source.
func (s Source) String() string {
	switch s {
	case Predicted:
		return "predicted"
	case Pulled:
		return "pulled"
	case Pushed:
		return "pushed"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Entry is one cached observation.
type Entry struct {
	T        simtime.Time
	V        float64
	Source   Source
	ErrBound float64 // guaranteed |V - truth| <= ErrBound
}

// Series is the cache for one sensor: entries sorted by time, deduplicated
// by timestamp with provenance priority. Not safe for concurrent use.
type Series struct {
	entries []Entry

	inserts, refinements uint64
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Len returns the number of cached entries.
func (s *Series) Len() int { return len(s.entries) }

// find returns the index of the first entry with T >= t.
func (s *Series) find(t simtime.Time) int {
	return sort.Search(len(s.entries), func(i int) bool { return s.entries[i].T >= t })
}

// Insert adds an entry, keeping time order. If an entry already exists at
// the same timestamp, the stronger source wins (refinement); equal sources
// overwrite (fresher data).
func (s *Series) Insert(e Entry) {
	if e.ErrBound < 0 {
		e.ErrBound = 0
	}
	i := s.find(e.T)
	if i < len(s.entries) && s.entries[i].T == e.T {
		if e.Source >= s.entries[i].Source {
			if e.Source > s.entries[i].Source {
				s.refinements++
			}
			s.entries[i] = e
		}
		return
	}
	s.entries = append(s.entries, Entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
	s.inserts++
}

// InsertBatch adds many entries (e.g. a decoded pull response).
func (s *Series) InsertBatch(es []Entry) {
	for _, e := range es {
		s.Insert(e)
	}
}

// At returns the entry nearest to t within maxGap, preferring the closest
// timestamp and breaking ties toward the earlier entry.
func (s *Series) At(t simtime.Time, maxGap time.Duration) (Entry, bool) {
	return nearest(s.entries, s.find(t), t, maxGap)
}

// nearest implements At given i, the index of the first entry with
// T >= t.
func nearest(entries []Entry, i int, t simtime.Time, maxGap time.Duration) (Entry, bool) {
	best := -1
	if i < len(entries) {
		best = i
	}
	if i > 0 {
		if best == -1 || t-entries[i-1].T <= entries[i].T-t {
			best = i - 1
		}
	}
	if best < 0 {
		return Entry{}, false
	}
	e := entries[best]
	gap := e.T - t
	if gap < 0 {
		gap = -gap
	}
	if time.Duration(gap) > maxGap {
		return Entry{}, false
	}
	return e, true
}

// Range returns entries with t0 <= T <= t1 in time order.
func (s *Series) Range(t0, t1 simtime.Time) []Entry {
	if t1 < t0 {
		return nil
	}
	lo := s.find(t0)
	hi := s.find(t1 + 1)
	out := make([]Entry, hi-lo)
	copy(out, s.entries[lo:hi])
	return out
}

// LastConfirmed returns the newest pushed or pulled entry, if any.
// Confirmed entries are the "shared history" that model predictions key
// off (see internal/model).
func (s *Series) LastConfirmed() (Entry, bool) {
	for i := len(s.entries) - 1; i >= 0; i-- {
		if s.entries[i].Source != Predicted {
			return s.entries[i], true
		}
	}
	return Entry{}, false
}

// AppendConfirmedBefore appends up to limit confirmed entries with T <= t
// to dst as model records (oldest first) and returns the extended slice:
// the prediction shared history at t. Callers pass a reused buffer so a
// prediction costs no allocation.
func (s *Series) AppendConfirmedBefore(dst []model.Record, t simtime.Time, limit int) []model.Record {
	return s.appendConfirmed(dst, s.find(t+1), limit)
}

// appendConfirmed appends the last limit confirmed entries before index
// hi, oldest first: one backward scan finds where they start, one forward
// scan copies them.
func (s *Series) appendConfirmed(dst []model.Record, hi, limit int) []model.Record {
	if limit <= 0 {
		return dst
	}
	lo, n := hi, 0
	for lo > 0 && n < limit {
		lo--
		if s.entries[lo].Source != Predicted {
			n++
		}
	}
	for _, e := range s.entries[lo:hi] {
		if e.Source != Predicted {
			dst = append(dst, model.Record{T: e.T, V: e.V})
		}
	}
	return dst
}

// Cursor walks a series forward in time for a non-decreasing sequence of
// instants, answering what At and AppendConfirmedBefore would at each
// one without a binary search or an allocation per step: the
// nearest-entry position only moves forward, and the shared history is a
// rolling window of the last limit confirmed entries. The series must
// not change while a cursor is in use.
type Cursor struct {
	entries []Entry
	t       simtime.Time
	j       int // first entry with T >= t
	hi      int // first entry with T > t
	limit   int
	hist    []model.Record // last limit confirmed entries before hi, oldest first
}

// Cursor returns a cursor positioned at t0 whose shared history has at
// most limit records, kept in buf (reused from buf[:0]).
func (s *Series) Cursor(t0 simtime.Time, limit int, buf []model.Record) Cursor {
	j := s.find(t0)
	hi := j
	if hi < len(s.entries) && s.entries[hi].T == t0 {
		hi++ // timestamps are unique
	}
	return Cursor{entries: s.entries, t: t0, j: j, hi: hi, limit: limit, hist: s.appendConfirmed(buf[:0], hi, limit)}
}

// Seek moves the cursor forward to t; t must not be before the cursor's
// current instant.
func (c *Cursor) Seek(t simtime.Time) {
	c.t = t
	for c.j < len(c.entries) && c.entries[c.j].T < t {
		c.j++
	}
	for c.hi < len(c.entries) && c.entries[c.hi].T <= t {
		if e := c.entries[c.hi]; e.Source != Predicted && c.limit > 0 {
			if len(c.hist) == c.limit {
				copy(c.hist, c.hist[1:])
				c.hist = c.hist[:c.limit-1]
			}
			c.hist = append(c.hist, model.Record{T: e.T, V: e.V})
		}
		c.hi++
	}
}

// At is Series.At at the cursor's instant.
func (c *Cursor) At(maxGap time.Duration) (Entry, bool) {
	return nearest(c.entries, c.j, c.t, maxGap)
}

// History is AppendConfirmedBefore at the cursor's instant. The slice is
// the cursor's own buffer: valid until the next Seek.
func (c *Cursor) History() []model.Record { return c.hist }

// ConfirmedRange returns confirmed entries in [t0, t1] as model records,
// e.g. as training data for model refresh.
func (s *Series) ConfirmedRange(t0, t1 simtime.Time) []model.Record {
	var out []model.Record
	for _, e := range s.Range(t0, t1) {
		if e.Source != Predicted {
			out = append(out, model.Record{T: e.T, V: e.V})
		}
	}
	return out
}

// Prune drops entries older than before, returning how many were removed.
// Proxies bound their memory this way; older data lives in mote archives.
func (s *Series) Prune(before simtime.Time) int {
	i := s.find(before)
	if i == 0 {
		return 0
	}
	n := copy(s.entries, s.entries[i:])
	s.entries = s.entries[:n]
	return i
}

// Stats reports cache health.
type Stats struct {
	Entries     int
	Confirmed   int
	Predicted   int
	Inserts     uint64
	Refinements uint64
}

// Stats returns a snapshot.
func (s *Series) Stats() Stats {
	st := Stats{Entries: len(s.entries), Inserts: s.inserts, Refinements: s.refinements}
	for _, e := range s.entries {
		if e.Source == Predicted {
			st.Predicted++
		} else {
			st.Confirmed++
		}
	}
	return st
}
