package main

import (
	"math"
	"sort"
)

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), so the
// comparator's spreads match what a reader recomputes by hand.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

// tailPct is the tail percentile of the end-to-end latencies and of
// the load generator's lag. It needs at least ten samples beyond it, so
// it is valid from minTailSamples samples on; every run holds more.
const (
	tailPct        = 99
	minTailSamples = 1000
)

// tailPercentile is the highest percentile, up to tailPct, that has at
// least ten of n samples beyond it (and at least the median): the tail
// reported for a per-endpoint latency, where a run holds only hundreds
// of requests to some endpoints. It moves smoothly with n, so runs whose
// counts differ by a few requests report nearly the same percentile.
func tailPercentile(n int) float64 {
	return max(50, min(tailPct, 100*(1-10/float64(n))))
}

// nsHist is an exact nanosecond latency histogram. Its buckets are
// allocated once, so recording a sample inside a timed loop never
// allocates and never perturbs the allocation figures it sits beside.
type nsHist struct {
	counts []uint32
	over   []int64 // samples beyond the linear range, kept exactly
	n      int
	sum    int64 // of all samples, for the mean
}

const nsHistRange = 1 << 17 // 131 µs of 1 ns buckets

func newNsHist() *nsHist { return &nsHist{counts: make([]uint32, nsHistRange)} }

func (h *nsHist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns < nsHistRange {
		h.counts[ns]++
	} else {
		h.over = append(h.over, ns)
	}
	h.n++
	h.sum += ns
}

// mean returns the mean sample in nanoseconds.
func (h *nsHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// percentile returns the nearest-rank p-th percentile (0-100) in
// nanoseconds.
func (h *nsHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for ns, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return float64(ns)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return float64(h.over[rank-seen-1])
}
