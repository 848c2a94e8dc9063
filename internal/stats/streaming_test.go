package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	if math.Abs(a-b) <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// TestWelfordMatchesBatch checks the streaming accumulator against the
// batch Mean/Stddev/Min/Max on random series.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 1000} {
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			w.Add(xs[i])
		}
		if w.N() != int64(n) {
			t.Fatalf("n=%d: N()=%d", n, w.N())
		}
		if !almostEq(w.Mean(), Mean(xs), 1e-9) {
			t.Errorf("n=%d: mean %g vs batch %g", n, w.Mean(), Mean(xs))
		}
		if !almostEq(w.Stddev(), Stddev(xs), 1e-9) {
			t.Errorf("n=%d: stddev %g vs batch %g", n, w.Stddev(), Stddev(xs))
		}
		if w.Min() != Min(xs) || w.Max() != Max(xs) {
			t.Errorf("n=%d: min/max %g/%g vs batch %g/%g", n, w.Min(), w.Max(), Min(xs), Max(xs))
		}
		if w.Last() != xs[n-1] {
			t.Errorf("n=%d: last %g vs %g", n, w.Last(), xs[n-1])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		if !almostEq(w.Sum(), sum, 1e-9) {
			t.Errorf("n=%d: sum %g vs %g", n, w.Sum(), sum)
		}
	}
}

// TestWelfordZeroValue checks the zero value is usable and empty-safe.
func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Stddev() != 0 || w.Min() != 0 || w.Max() != 0 || w.N() != 0 {
		t.Fatal("zero-value Welford must report zeros")
	}
	w.Add(5)
	if w.Stddev() != 0 {
		t.Fatalf("single sample stddev = %g, want 0", w.Stddev())
	}
}

// TestWelfordMerge checks the parallel combine against one accumulator
// that saw the concatenated stream.
func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, split := range []struct{ a, b int }{{0, 10}, {10, 0}, {1, 1}, {7, 93}, {500, 500}} {
		xs := make([]float64, split.a+split.b)
		var all, left, right Welford
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 10
			all.Add(xs[i])
			if i < split.a {
				left.Add(xs[i])
			} else {
				right.Add(xs[i])
			}
		}
		left.Merge(right)
		if left.N() != all.N() {
			t.Fatalf("split %v: merged N %d vs %d", split, left.N(), all.N())
		}
		if !almostEq(left.Mean(), all.Mean(), 1e-9) || !almostEq(left.Stddev(), all.Stddev(), 1e-9) {
			t.Errorf("split %v: merged mean/stddev %g/%g vs %g/%g",
				split, left.Mean(), left.Stddev(), all.Mean(), all.Stddev())
		}
		if left.Min() != all.Min() || left.Max() != all.Max() {
			t.Errorf("split %v: merged min/max differ", split)
		}
	}
}

// TestRingQuantileMatchesBatch checks that window percentiles are exactly
// the batch Percentile over the last K samples.
func TestRingQuantileMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const cap = 64
	r := NewRingQuantile(cap)
	var all []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 1000
		r.Add(x)
		all = append(all, x)
		if i%37 != 0 {
			continue
		}
		window := all
		if len(window) > cap {
			window = window[len(window)-cap:]
		}
		if r.N() != len(window) {
			t.Fatalf("i=%d: window fill %d, want %d", i, r.N(), len(window))
		}
		for _, p := range []float64{0, 5, 50, 95, 99, 100} {
			got, want := r.Quantile(p), Percentile(window, p)
			if got != want {
				t.Errorf("i=%d p%g: %g vs batch %g", i, p, got, want)
			}
		}
	}
}

// TestRingQuantileWindowOrder checks eviction order: the oldest samples
// leave the window first.
func TestRingQuantileWindowOrder(t *testing.T) {
	r := NewRingQuantile(3)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.N() != 3 || r.Quantile(0) != 3 || r.Quantile(50) != 4 || r.Quantile(100) != 5 {
		t.Fatalf("window n=%d p0=%g p50=%g p100=%g, want [3 4 5]",
			r.N(), r.Quantile(0), r.Quantile(50), r.Quantile(100))
	}
}

// TestRingQuantileDuplicates exercises eviction with repeated values,
// where removal must drop exactly one copy from the sorted view.
func TestRingQuantileDuplicates(t *testing.T) {
	r := NewRingQuantile(4)
	for _, x := range []float64{2, 2, 2, 1, 2, 2} {
		r.Add(x)
	}
	// Window is [1 2 2 2] after evicting two of the leading 2s.
	if got := r.Quantile(0); got != 1 {
		t.Fatalf("min quantile = %g, want 1", got)
	}
	if got := r.Quantile(100); got != 2 {
		t.Fatalf("max quantile = %g, want 2", got)
	}
	if got, want := r.Quantile(50), Percentile([]float64{1, 2, 2, 2}, 50); got != want {
		t.Fatalf("p50 = %g, want %g", got, want)
	}
}

func TestRingQuantileEmptyAndTiny(t *testing.T) {
	r := NewRingQuantile(0) // clamped to 1
	if r.Quantile(50) != 0 {
		t.Fatal("empty quantile must be 0")
	}
	r.Add(42)
	r.Add(43) // evicts 42 in the size-1 window
	if r.Quantile(50) != 43 || r.N() != 1 {
		t.Fatalf("size-1 window: p50=%g n=%d", r.Quantile(50), r.N())
	}
}

// TestWelfordEdgeCases locks the degenerate-input behavior the validation
// scorecard depends on: empty and single-sample accumulators must divide
// cleanly, empty merges must be identities in both directions, and NaN
// samples must not poison the stream.
func TestWelfordEdgeCases(t *testing.T) {
	t.Run("empty-merge-identity", func(t *testing.T) {
		var a, b Welford
		a.Merge(b) // empty into empty
		if a.N() != 0 || a.Mean() != 0 || a.Stddev() != 0 || a.Sum() != 0 {
			t.Fatalf("empty+empty: n=%d mean=%g sd=%g sum=%g", a.N(), a.Mean(), a.Stddev(), a.Sum())
		}
		a.Add(5)
		a.Merge(b) // empty into loaded: identity
		if a.N() != 1 || a.Mean() != 5 || a.Last() != 5 {
			t.Fatalf("loaded+empty changed state: n=%d mean=%g last=%g", a.N(), a.Mean(), a.Last())
		}
		b.Merge(a) // loaded into empty: copy
		if b.N() != 1 || b.Mean() != 5 || b.Min() != 5 || b.Max() != 5 {
			t.Fatalf("empty+loaded: n=%d mean=%g min=%g max=%g", b.N(), b.Mean(), b.Min(), b.Max())
		}
	})
	t.Run("single-sample", func(t *testing.T) {
		var w Welford
		w.Add(-3)
		if w.Variance() != 0 || w.Stddev() != 0 {
			t.Fatalf("single-sample variance must be 0, got %g", w.Variance())
		}
		if w.Mean() != -3 || w.Min() != -3 || w.Max() != -3 || w.Sum() != -3 {
			t.Fatalf("single-sample aggregates: mean=%g min=%g max=%g sum=%g",
				w.Mean(), w.Min(), w.Max(), w.Sum())
		}
	})
	t.Run("nan-dropped", func(t *testing.T) {
		var w Welford
		w.Add(1)
		w.Add(math.NaN())
		w.Add(3)
		if w.N() != 2 {
			t.Fatalf("NaN must be dropped, n=%d", w.N())
		}
		if w.Mean() != 2 || w.Min() != 1 || w.Max() != 3 || w.Last() != 3 {
			t.Fatalf("post-NaN aggregates: mean=%g min=%g max=%g last=%g",
				w.Mean(), w.Min(), w.Max(), w.Last())
		}
		if math.IsNaN(w.Stddev()) {
			t.Fatal("stddev poisoned by NaN")
		}
	})
}

// TestRingQuantileEdgeCases locks single-sample quantiles, NaN sample and
// NaN percentile handling, and sorted-view integrity after NaN exposure.
func TestRingQuantileEdgeCases(t *testing.T) {
	t.Run("single-sample-all-percentiles", func(t *testing.T) {
		r := NewRingQuantile(8)
		r.Add(7)
		for _, p := range []float64{0, 1, 25, 50, 75, 99, 100} {
			if got := r.Quantile(p); got != 7 {
				t.Fatalf("Quantile(%g) of one sample = %g, want 7", p, got)
			}
		}
	})
	t.Run("nan-sample-dropped", func(t *testing.T) {
		r := NewRingQuantile(4)
		r.Add(2)
		r.Add(math.NaN())
		r.Add(1)
		r.Add(3)
		if r.N() != 3 {
			t.Fatalf("NaN must be dropped, n=%d", r.N())
		}
		// The sorted view must still be intact: correct order statistics.
		if r.Quantile(0) != 1 || r.Quantile(100) != 3 || r.Quantile(50) != 2 {
			t.Fatalf("order statistics broken after NaN: p0=%g p50=%g p100=%g",
				r.Quantile(0), r.Quantile(50), r.Quantile(100))
		}
		// Evictions must keep working (index bookkeeping unharmed).
		r.Add(4)
		r.Add(5)
		if r.N() != 4 || r.Quantile(100) != 5 {
			t.Fatalf("post-NaN eviction broken: n=%d max=%g", r.N(), r.Quantile(100))
		}
	})
	t.Run("nan-percentile", func(t *testing.T) {
		r := NewRingQuantile(4)
		r.Add(1)
		r.Add(2)
		if got := r.Quantile(math.NaN()); got != 0 {
			t.Fatalf("Quantile(NaN) = %g, want 0", got)
		}
	})
}
