package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median wrong")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Error("even median must interpolate")
	}
	if Median(nil) != 0 {
		t.Error("empty median must be 0")
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 0}, {2, 1}, {3, 1}, {1024, 10},
		{2_000_000, 20}, {1 << 39, 39}, {1 << 62, 62},
		// 2^49-1: math.Floor(math.Log2(x)) rounds this up to 49.
		{562949953421311, 48},
		{math.NaN(), 0}, {math.Inf(-1), 0}, {math.Inf(1), 1024},
	}
	for _, c := range cases {
		if got := Log2Bucket(c.x); got != c.want {
			t.Errorf("Log2Bucket(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Every power of two opens its own bucket, and the largest float
	// below it still sits in the bucket before.
	for k := 1; k <= 1023; k++ {
		p := math.Ldexp(1, k)
		if got := Log2Bucket(p); got != k {
			t.Fatalf("Log2Bucket(2^%d) = %d", k, got)
		}
		if got := Log2Bucket(math.Nextafter(p, 0)); got != k-1 {
			t.Fatalf("Log2Bucket(prev(2^%d)) = %d, want %d", k, got, k-1)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {105, 50}, {12.5, 15},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	// The input must not be reordered.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 {
		t.Error("Percentile mutated its input")
	}
}

func TestStddev(t *testing.T) {
	if !almost(Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Errorf("stddev = %g, want 2", Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if Stddev([]float64{5}) != 0 || Stddev(nil) != 0 {
		t.Error("degenerate stddev must be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Error("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max must be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almost(s.Mean, 3) || !almost(s.Median, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) {
		t.Errorf("summary = %+v", s)
	}
	if s.P5 >= s.P95 {
		t.Error("P5 must be below P95")
	}
}

func TestPctChange(t *testing.T) {
	if !almost(PctChange(200, 230), 15) {
		t.Error("PctChange(200,230) != 15")
	}
	if !almost(PctChange(100, 80), -20) {
		t.Error("PctChange(100,80) != -20")
	}
	if PctChange(0, 5) != 0 {
		t.Error("zero base must give 0")
	}
	// The paper's Table II: 290.51 -> 457.38 is +57.4%.
	if math.Abs(PctChange(290.51, 457.38)-57.4) > 0.1 {
		t.Error("Table II cross-check failed")
	}
}

// Property: min <= p5 <= median <= p95 <= max and min <= mean <= max.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.P5+1e-9 && s.P5 <= s.Median+1e-9 &&
			s.Median <= s.P95+1e-9 && s.P95 <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean and median are translation-equivariant.
func TestTranslationProperty(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			ys[i] = float64(r) + float64(shift)
		}
		return almost(Mean(ys), Mean(xs)+float64(shift)) &&
			almost(Median(ys), Median(xs)+float64(shift)) &&
			math.Abs(Stddev(ys)-Stddev(xs)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
