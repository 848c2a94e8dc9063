// Package telemetry is the live-monitoring layer over the simulated
// machines: a sharded, concurrency-safe time-series store that ingests
// per-tick samples from scenario step hooks (one series per core, event
// and PMU, plus machine-level power, energy, frequency and temperature),
// holds them in fixed-capacity ring buffers with multi-resolution
// downsampling rungs, and answers snapshot/range/aggregate queries
// without blocking ingestion.
//
// Layout: series are partitioned across shards by an FNV-1a hash of their
// key, so concurrent collectors (one goroutine per simulated machine)
// contend only when they hash to the same shard. The write path takes one
// shard's write lock for O(1) work per sample; the read path takes the
// shard's read lock only long enough to copy points out ("copy-on-read"),
// so queries never hold a lock while marshalling or aggregating. Rings
// grow lazily up to their configured capacity, so a fleet of thousands of
// short-lived machines pays for the points it stores, not for the
// capacity it reserves.
//
// Each sample is stored once. Every series folds a lifetime Welford
// mean/variance in O(1) at ingest (internal/stats); p50/p95/p99 are
// taken from the raw ring at query time, sorting at most Capacity values
// outside the lock, and Last never sorts — ingest pays no quantile
// upkeep, the cost model Diamond et al.'s RAPL-overhead study demands.
//
// Downsampling rungs: alongside the raw ring, every series maintains one
// ring of mergeable bucket aggregates (stats.Bucket) per rung resolution
// (1s/10s/1m of simulated time), folded at ingest. A query over any rung
// walks at most RungCapacity buckets, and a population-wide query (the
// /fleet/query endpoint) merges closed buckets across thousands of
// machines without ever touching a raw ring.
package telemetry

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hetpapi/internal/stats"
)

// Key addresses one series: a machine id (the daemon uses the scenario
// name) and a series name ("cpu0_mhz", "power_w", "cpu3/P-core/cycles").
type Key struct {
	Machine string
	Series  string
}

func (k Key) String() string { return k.Machine + "/" + k.Series }

// Config sizes the store.
type Config struct {
	// Capacity is the per-series raw ring capacity in stored points
	// (default 4096). Aggregate's percentiles cover the same window.
	Capacity int
	// Shards is the number of lock shards (default 8).
	Shards int
	// RungCapacity is the per-series, per-rung ring capacity in closed
	// buckets (default 1024; at the 1s rung that is ~17 simulated
	// minutes of history). Rungs cost nothing until samples arrive:
	// their rings grow lazily like the raw ring.
	RungCapacity int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.RungCapacity <= 0 {
		c.RungCapacity = 1024
	}
	return c
}

// ring is a lazily-grown circular buffer: it appends until it reaches
// max, then wraps, overwriting the oldest entry. Memory is proportional
// to the points actually stored, never to the configured capacity.
type ring[T any] struct {
	buf  []T
	max  int
	head int // next overwrite position once len(buf) == max
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.max
}

func (r *ring[T]) len() int { return len(r.buf) }

// appendValues appends a raw ring's values, unordered, onto dst.
func appendValues(dst []float64, r *ring[Point]) []float64 {
	for _, p := range r.buf {
		dst = append(dst, p.Value)
	}
	return dst
}

// appendTo appends the ring contents, oldest first, onto dst.
func (r *ring[T]) appendTo(dst []T) []T {
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}

// rungState is one resolution's downsampling state: the currently open
// bucket plus the ring of closed ones. Guarded by the shard's mutex.
type rungState struct {
	width float64 // bucket width in seconds
	open  bool
	start float64 // open bucket's aligned start time
	cur   stats.Bucket
	ring  ring[RungPoint]
}

// add folds one sample at time t into the rung, closing the open bucket
// when t crosses into a later one. Timestamps are assumed non-decreasing
// per series (the collector contract); a late sample that lands before
// the open bucket is folded into the open bucket rather than reopening a
// closed one, which keeps the ring time-ordered.
func (rs *rungState) add(t, v float64) {
	bs := math.Floor(t/rs.width) * rs.width
	if !rs.open {
		rs.open = true
		rs.start = bs
	} else if bs > rs.start {
		rs.ring.push(RungPoint{TimeSec: rs.start, Agg: rs.cur})
		rs.cur = stats.Bucket{}
		rs.start = bs
	}
	rs.cur.Add(v)
}

// appendWindow appends the rung's buckets with from <= TimeSec <= to
// (negative bounds are open) onto dst, closed buckets first, then the
// open bucket so live queries see the freshest window.
func (rs *rungState) appendWindow(fromSec, toSec float64, dst []RungPoint) []RungPoint {
	emit := func(p RungPoint) []RungPoint {
		if fromSec >= 0 && p.TimeSec < fromSec {
			return dst
		}
		if toSec >= 0 && p.TimeSec > toSec {
			return dst
		}
		return append(dst, p)
	}
	for _, p := range rs.ring.buf[rs.ring.head:] {
		dst = emit(p)
	}
	for _, p := range rs.ring.buf[:rs.ring.head] {
		dst = emit(p)
	}
	if rs.open {
		dst = emit(RungPoint{TimeSec: rs.start, Agg: rs.cur})
	}
	return dst
}

// series is one ring-buffered signal plus its lifetime aggregate and
// downsampling rungs. Guarded by its shard's mutex.
type series struct {
	raw ring[Point]
	agg stats.Welford

	// rungs holds one downsampling state per non-raw rung, indexed by
	// Rung-1 (Rung1s first).
	rungs [numRungs - 1]rungState
}

type shard struct {
	mu     sync.RWMutex
	series map[Key]*series
}

// Store is the sharded time-series store.
type Store struct {
	cfg    Config
	shards []*shard

	// rejected counts non-finite samples dropped at the door.
	rejected atomic.Int64

	metaMu sync.RWMutex
	meta   map[string]MachineMeta
}

// MachineMeta tags one machine id with fleet metadata, letting
// population queries group by template without parsing machine ids.
type MachineMeta struct {
	Template string `json:"template,omitempty"`
	Model    string `json:"model,omitempty"`
}

// NewStore builds a store with the given (defaulted) configuration.
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	st := &Store{cfg: cfg, shards: make([]*shard, cfg.Shards), meta: map[string]MachineMeta{}}
	for i := range st.shards {
		st.shards[i] = &shard{series: map[Key]*series{}}
	}
	return st
}

// Config returns the effective (defaulted) configuration.
func (st *Store) Config() Config { return st.cfg }

// SetMeta tags a machine id with fleet metadata (template, model).
func (st *Store) SetMeta(machine string, m MachineMeta) {
	st.metaMu.Lock()
	st.meta[machine] = m
	st.metaMu.Unlock()
}

// Meta returns a machine's metadata (zero value when untagged).
func (st *Store) Meta(machine string) MachineMeta {
	st.metaMu.RLock()
	defer st.metaMu.RUnlock()
	return st.meta[machine]
}

// Rejected returns the number of non-finite samples dropped at ingest.
func (st *Store) Rejected() int64 { return st.rejected.Load() }

func (st *Store) shardOf(k Key) *shard {
	h := fnv.New32a()
	h.Write([]byte(k.Machine))
	h.Write([]byte{0})
	h.Write([]byte(k.Series))
	return st.shards[h.Sum32()%uint32(len(st.shards))]
}

// Append ingests one raw sample into the keyed series, creating it on
// first use. Non-finite values (NaN, ±Inf) are rejected before they can
// reach any ring or accumulator: a NaN would poison the streaming
// aggregates and an Inf would destroy every rung bucket's envelope for
// the rest of its window. Safe for concurrent use with other appends
// and queries.
func (st *Store) Append(k Key, timeSec, value float64) {
	if math.IsNaN(value) || math.IsInf(value, 0) ||
		math.IsNaN(timeSec) || math.IsInf(timeSec, 0) {
		st.rejected.Add(1)
		return
	}
	sh := st.shardOf(k)
	sh.mu.Lock()
	s := sh.series[k]
	if s == nil {
		s = &series{raw: ring[Point]{max: st.cfg.Capacity}}
		for i := range s.rungs {
			s.rungs[i] = rungState{
				width: Rung(i + 1).Width(),
				ring:  ring[RungPoint]{max: st.cfg.RungCapacity},
			}
		}
		sh.series[k] = s
	}
	s.agg.Add(value)
	s.raw.push(Point{TimeSec: timeSec, Value: value})
	for i := range s.rungs {
		s.rungs[i].add(timeSec, value)
	}
	sh.mu.Unlock()
}

// Len returns the number of stored points of a series, 0 when absent.
func (st *Store) Len(k Key) int {
	sh := st.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s := sh.series[k]; s != nil {
		return s.raw.len()
	}
	return 0
}

// Snapshot returns a copy of every stored point of a series, oldest
// first, and whether the series exists.
func (st *Store) Snapshot(k Key) ([]Point, bool) {
	return st.SnapshotInto(k, nil)
}

// SnapshotInto appends every stored point of a series, oldest first,
// onto dst (which may be a recycled buffer) and reports whether the
// series exists. The returned slice aliases dst's array when capacity
// allows — the pooled read path the /query handler uses to avoid a
// fresh allocation per request.
func (st *Store) SnapshotInto(k Key, dst []Point) ([]Point, bool) {
	sh := st.shardOf(k)
	sh.mu.RLock()
	s := sh.series[k]
	if s == nil {
		sh.mu.RUnlock()
		return dst, false
	}
	dst = s.raw.appendTo(dst)
	sh.mu.RUnlock()
	return dst, true
}

// Range returns the stored points with FromSec <= TimeSec <= ToSec. A
// negative bound is open. The bool reports series existence (an empty
// range on an existing series is ([], true)).
func (st *Store) Range(k Key, fromSec, toSec float64) ([]Point, bool) {
	return st.RangeInto(k, fromSec, toSec, nil)
}

// RangeInto is Range appending into a caller-supplied (possibly
// recycled) buffer, like SnapshotInto.
func (st *Store) RangeInto(k Key, fromSec, toSec float64, dst []Point) ([]Point, bool) {
	base := len(dst)
	dst, ok := st.SnapshotInto(k, dst)
	if !ok {
		return dst, false
	}
	out := dst[base:base]
	for _, p := range dst[base:] {
		if fromSec >= 0 && p.TimeSec < fromSec {
			continue
		}
		if toSec >= 0 && p.TimeSec > toSec {
			continue
		}
		out = append(out, p)
	}
	return dst[:base+len(out)], true
}

// RungRange returns the rung's bucket aggregates with
// from <= bucket start <= to (negative bounds open), oldest first,
// including the still-open bucket, and whether the series exists.
// RungRaw falls back to the raw ring, wrapping each stored point in a
// single-sample bucket, so callers can treat every resolution
// uniformly.
func (st *Store) RungRange(k Key, r Rung, fromSec, toSec float64) ([]RungPoint, bool) {
	return st.RungRangeInto(k, r, fromSec, toSec, nil)
}

// RungRangeInto is RungRange appending into a caller-supplied buffer.
func (st *Store) RungRangeInto(k Key, r Rung, fromSec, toSec float64, dst []RungPoint) ([]RungPoint, bool) {
	sh := st.shardOf(k)
	sh.mu.RLock()
	s := sh.series[k]
	if s == nil {
		sh.mu.RUnlock()
		return dst, false
	}
	if r == RungRaw {
		emit := func(p Point) {
			if fromSec >= 0 && p.TimeSec < fromSec {
				return
			}
			if toSec >= 0 && p.TimeSec > toSec {
				return
			}
			dst = append(dst, RungPoint{TimeSec: p.TimeSec,
				Agg: stats.Bucket{N: 1, Sum: p.Value, Min: p.Value, Max: p.Value, Last: p.Value}})
		}
		for _, p := range s.raw.buf[s.raw.head:] {
			emit(p)
		}
		for _, p := range s.raw.buf[:s.raw.head] {
			emit(p)
		}
	} else {
		dst = s.rungs[r-1].appendWindow(fromSec, toSec, dst)
	}
	sh.mu.RUnlock()
	return dst, true
}

// Aggregate returns the aggregate of a series: lifetime
// count/sum/mean/stddev/min/max/last from the Welford accumulator and
// p50/p95/p99 over the raw ring (the last Capacity samples), copied out
// under the read lock and sorted after it is released.
func (st *Store) Aggregate(k Key) (Aggregate, bool) {
	sh := st.shardOf(k)
	sh.mu.RLock()
	s := sh.series[k]
	if s == nil {
		sh.mu.RUnlock()
		return Aggregate{}, false
	}
	w := s.agg
	bufp := valueBufPool.Get().(*[]float64)
	*bufp = appendValues((*bufp)[:0], &s.raw)
	sh.mu.RUnlock()
	agg := summarize(&w, *bufp)
	valueBufPool.Put(bufp)
	return agg, true
}

// Last returns the most recent sample of a series and whether it exists:
// the O(1) read for scrapers (/metrics, /degradations) that need no
// quantiles.
func (st *Store) Last(k Key) (float64, bool) {
	sh := st.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s := sh.series[k]; s != nil {
		return s.agg.Last(), true
	}
	return 0, false
}

// valueBufPool recycles Aggregate's percentile scratch slices.
var valueBufPool = sync.Pool{New: func() any { return new([]float64) }}

// summarize builds an Aggregate from a Welford accumulator and the window
// values behind its percentiles, sorting window in place once.
func summarize(w *stats.Welford, window []float64) Aggregate {
	sort.Float64s(window)
	return Aggregate{
		Count:  w.N(),
		Sum:    w.Sum(),
		Mean:   w.Mean(),
		Stddev: w.Stddev(),
		Min:    w.Min(),
		Max:    w.Max(),
		Last:   w.Last(),
		P50:    stats.PercentileSorted(window, 50),
		P95:    stats.PercentileSorted(window, 95),
		P99:    stats.PercentileSorted(window, 99),
	}
}

// Keys returns every series key, sorted by machine then series name.
func (st *Store) Keys() []Key {
	var out []Key
	for _, sh := range st.shards {
		sh.mu.RLock()
		for k := range sh.series {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Machine != out[j].Machine {
			return out[i].Machine < out[j].Machine
		}
		return out[i].Series < out[j].Series
	})
	return out
}

// Machines returns the distinct machine ids present, sorted.
func (st *Store) Machines() []string {
	seen := map[string]bool{}
	for _, k := range st.Keys() {
		seen[k.Machine] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SeriesOf returns the sorted series names of one machine.
func (st *Store) SeriesOf(machine string) []string {
	var out []string
	for _, k := range st.Keys() {
		if k.Machine == machine {
			out = append(out, k.Series)
		}
	}
	return out
}

// NumSeries returns the total series count.
func (st *Store) NumSeries() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.RLock()
		n += len(sh.series)
		sh.mu.RUnlock()
	}
	return n
}

// CounterSeriesName is the naming convention for per-core counter series:
// cpu<N>/<core-type>/<kind>, e.g. "cpu3/P-core/instructions".
func CounterSeriesName(cpu int, typeName, kind string) string {
	return fmt.Sprintf("cpu%d/%s/%s", cpu, typeName, kind)
}

// TypeSeriesName is the naming convention for per-core-type counter
// totals (the fleet streamer's form): type/<core-type>/<kind>, e.g.
// "type/P-core/instructions".
func TypeSeriesName(typeName, kind string) string {
	return "type/" + typeName + "/" + kind
}

// MeasureSeriesName is the naming convention for the PAPI-probe value
// series of a fault scenario: measure/<event>/<field>, e.g.
// "measure/PAPI_TOT_CYC/final".
func MeasureSeriesName(event, field string) string {
	return fmt.Sprintf("measure/%s/%s", event, field)
}

// DegradationSeriesName is the naming convention for the probe's
// degradation tallies, e.g. "degradation/busy_retries".
func DegradationSeriesName(counter string) string {
	return "degradation/" + counter
}

// parseCounterSeries splits a counter series name into its parts.
func parseCounterSeries(name string) (cpu, typeName, kind string, ok bool) {
	parts := strings.Split(name, "/")
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "cpu") {
		return "", "", "", false
	}
	return strings.TrimPrefix(parts[0], "cpu"), parts[1], parts[2], true
}

// parseEventSeries classifies a series name for population grouping:
// per-CPU counters (cpu<N>/<type>/<kind>) and per-type totals
// (type/<type>/<kind>) map to their core type and event kind; the
// machine-level scalars map to the pseudo-type "machine"; degradation
// tallies map to the pseudo-type "degradation". Everything else is not
// part of the population view.
func parseEventSeries(name string) (typeName, kind string, ok bool) {
	if _, tn, kd, isCounter := parseCounterSeries(name); isCounter {
		return tn, kd, true
	}
	if rest, isType := strings.CutPrefix(name, "type/"); isType {
		if i := strings.IndexByte(rest, '/'); i > 0 && i < len(rest)-1 {
			return rest[:i], rest[i+1:], true
		}
		return "", "", false
	}
	switch name {
	case "power_w", "energy_j", "temp_c", "wall_w":
		return "machine", name, true
	}
	if counter, isDegr := strings.CutPrefix(name, "degradation/"); isDegr {
		return "degradation", counter, true
	}
	return "", "", false
}

// TypeAggregates groups one machine's counter series of the given kind
// ("instructions", "cycles", "llc-refs", "llc-misses") by core type and
// returns one merged aggregate per type: Welford accumulators are merged
// exactly (the per-core-type mean/stddev of the per-sample values),
// LastSum is the sum of each member's last value (the system-wide per-type
// counter total, since the series carry cumulative counts), and
// percentiles are computed over the members' combined raw rings.
func (st *Store) TypeAggregates(machine, kind string) []TypeAggregate {
	type group struct {
		n       int
		w       stats.Welford
		window  []float64
		lastSum float64
	}
	groups := map[string]*group{}
	for _, sh := range st.shards {
		sh.mu.RLock()
		for k, s := range sh.series {
			if k.Machine != machine {
				continue
			}
			_, typeName, kd, ok := parseCounterSeries(k.Series)
			if !ok || kd != kind {
				continue
			}
			g := groups[typeName]
			if g == nil {
				g = &group{}
				groups[typeName] = g
			}
			g.n++
			g.w.Merge(s.agg)
			g.window = appendValues(g.window, &s.raw)
			g.lastSum += s.agg.Last()
		}
		sh.mu.RUnlock()
	}
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TypeAggregate, 0, len(names))
	for _, name := range names {
		g := groups[name]
		out = append(out, TypeAggregate{Type: name, Series: g.n, LastSum: g.lastSum, Agg: summarize(&g.w, g.window)})
	}
	return out
}
