package stats

import (
	"math"
	"sort"
)

// Streaming statistics for long-running monitoring. Welford tracks
// mean/variance in O(1) per sample over the whole stream; RingQuantile
// keeps a sliding window of the last K samples with an incrementally
// sorted view: O(1) quantile queries for O(K) inserts.

// Welford is the numerically stable streaming mean/variance accumulator
// (Welford 1962). The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
	last float64
}

// Add ingests one sample. NaN samples are dropped: a single NaN would
// otherwise poison the running mean, min and max for the rest of the
// stream (NaN compares false against everything), and the scorecard and
// fleet roll-ups that serve these aggregates as JSON cannot represent it.
func (w *Welford) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.last = x
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples ingested.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean, or 0 before any sample.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance (matching the batch
// Stddev convention), or 0 for fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the running population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample seen, or 0 before any sample.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample seen, or 0 before any sample.
func (w *Welford) Max() float64 { return w.max }

// Last returns the most recent sample, or 0 before any sample.
func (w *Welford) Last() float64 { return w.last }

// Sum returns the running sum of all samples.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Merge folds another accumulator into w (the Chan et al. parallel
// combine), as if w had also ingested every sample o saw. The Last value
// is taken from o when o is non-empty (merge order is "w then o").
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.last = o.last
}

// RingQuantile estimates percentiles over a sliding window of the last
// K samples. It keeps the raw window in a circular buffer (for eviction
// order) and the same multiset in a sorted slice maintained by binary
// insertion/removal, so Quantile never sorts: it is a direct interpolated
// lookup identical to Percentile over the current window.
type RingQuantile struct {
	ring   []float64 // circular raw-order buffer
	sorted []float64 // ascending view of the same values
	head   int       // next write position in ring
	n      int       // current window fill
}

// NewRingQuantile returns an estimator over a window of the given capacity
// (minimum 1).
func NewRingQuantile(capacity int) *RingQuantile {
	if capacity < 1 {
		capacity = 1
	}
	return &RingQuantile{
		ring:   make([]float64, capacity),
		sorted: make([]float64, 0, capacity),
	}
}

// Add ingests one sample, evicting the oldest once the window is full.
// NaN samples are dropped: the sorted view is maintained by binary
// search (sort.SearchFloat64s), whose invariants a NaN entry silently
// destroys — every later insert and eviction would land at wrong
// indices and Quantile would return garbage for the window's lifetime.
func (r *RingQuantile) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if r.n == len(r.ring) {
		old := r.ring[r.head]
		i := sort.SearchFloat64s(r.sorted, old)
		r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
		r.n--
	}
	r.ring[r.head] = x
	r.head = (r.head + 1) % len(r.ring)
	r.n++
	i := sort.SearchFloat64s(r.sorted, x)
	r.sorted = append(r.sorted, 0)
	copy(r.sorted[i+1:], r.sorted[i:])
	r.sorted[i] = x
}

// N returns the current window fill.
func (r *RingQuantile) N() int { return r.n }

// Quantile returns the p-th percentile (0-100) of the current window with
// the same closest-ranks interpolation as Percentile; 0 when empty or for
// a NaN percentile.
func (r *RingQuantile) Quantile(p float64) float64 { return PercentileSorted(r.sorted, p) }
