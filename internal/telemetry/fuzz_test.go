package telemetry

import (
	"encoding/binary"
	"math"
	"testing"

	"hetpapi/internal/stats"
)

// FuzzRungDownsample feeds an arbitrary byte-derived sample stream into
// a small store and checks the downsampling invariants on every rung:
// ingest never panics, non-finite samples are rejected exactly, bucket
// starts are width-aligned and strictly increasing, every bucket is
// internally consistent (N > 0, Min <= Max, Min <= Mean <= Max), and
// the coarsest rung that never wrapped accounts for every accepted
// sample. It also holds the query-time aggregate to its oracles:
// Aggregate's percentiles equal the batch Percentile over the stored
// points, and Last equals both Aggregate.Last and the newest stored
// point.
func FuzzRungDownsample(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	// Two in-order samples, then a time jump backwards.
	seed := make([]byte, 0, 48)
	for _, v := range []float64{1, 10, 2, 20, 0.5, 30} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		seed = append(seed, b[:]...)
	}
	f.Add(seed)
	// Falling values past the 32-point raw ring: the ring wraps and its
	// storage order is neither time nor value order.
	wrap := make([]byte, 0, 40*16)
	for i := 0; i < 40; i++ {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(i)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(float64(100-3*i%7-i)))
		wrap = append(wrap, b[:]...)
	}
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewStore(Config{Capacity: 32, RungCapacity: 16, Shards: 1})
		k := Key{Machine: "m", Series: "s"}
		accepted := int64(0)
		for off := 0; off+16 <= len(data) && off < 16*512; off += 16 {
			ts := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:]))
			// Bound the time axis so bucket arithmetic stays exact; the
			// rejection path still sees raw NaN/Inf inputs.
			if ts > 1e12 || ts < -1e12 {
				ts = math.Mod(ts, 1e12)
			}
			st.Append(k, ts, v)
			if !math.IsNaN(ts) && !math.IsInf(ts, 0) && !math.IsNaN(v) && !math.IsInf(v, 0) {
				accepted++
			}
		}
		if got := st.Rejected(); got != int64(0) && accepted+got == 0 {
			t.Fatalf("rejected %d with no inputs", got)
		}
		checkAggregateOracle(t, st, k, accepted)
		for _, r := range Rungs() {
			pts, ok := st.RungRange(k, r, -1, -1)
			if accepted == 0 {
				if ok && len(pts) > 0 {
					t.Fatalf("rung %v has %d buckets with no accepted samples", r, len(pts))
				}
				continue
			}
			var total int64
			for i, p := range pts {
				if r != RungRaw {
					if want := math.Floor(p.TimeSec/r.Width()) * r.Width(); p.TimeSec != want {
						t.Fatalf("rung %v bucket %g not aligned to %g", r, p.TimeSec, r.Width())
					}
				}
				if i > 0 && p.TimeSec <= pts[i-1].TimeSec {
					t.Fatalf("rung %v buckets not strictly increasing: %g then %g", r, pts[i-1].TimeSec, p.TimeSec)
				}
				b := p.Agg
				if b.N <= 0 || b.Min > b.Max {
					t.Fatalf("rung %v bucket %+v inconsistent", r, b)
				}
				if mean := b.Mean(); mean < b.Min-1e-9*math.Abs(b.Min) || mean > b.Max+1e-9*math.Abs(b.Max) {
					t.Fatalf("rung %v bucket mean %g outside [%g, %g]", r, mean, b.Min, b.Max)
				}
				if math.IsNaN(b.Sum) || math.IsInf(b.Sum, 0) {
					t.Fatalf("rung %v bucket carries non-finite sum %g", r, b.Sum)
				}
				total += b.N
			}
			// A rung only loses samples by ring eviction: with 16 closed
			// buckets retained, a rung that produced fewer buckets than
			// the ring holds must cover every accepted sample.
			if r != RungRaw && len(pts) < 16 && total != accepted {
				t.Fatalf("rung %v covers %d samples, accepted %d (no eviction happened)", r, total, accepted)
			}
		}
	})
}

// checkAggregateOracle compares the store's query-time aggregate with
// batch recomputation over the series' stored points.
func checkAggregateOracle(t *testing.T, st *Store, k Key, accepted int64) {
	t.Helper()
	agg, aggOK := st.Aggregate(k)
	last, lastOK := st.Last(k)
	pts, snapOK := st.Snapshot(k)
	if accepted == 0 {
		if aggOK || lastOK || snapOK {
			t.Fatalf("series present with no accepted samples: agg %v last %v snapshot %v", aggOK, lastOK, snapOK)
		}
		return
	}
	if !aggOK || !lastOK || !snapOK || len(pts) == 0 {
		t.Fatalf("series missing after %d accepted samples: agg %v last %v snapshot %d", accepted, aggOK, lastOK, len(pts))
	}
	if agg.Count != accepted {
		t.Fatalf("Aggregate.Count = %d, accepted %d", agg.Count, accepted)
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Value
	}
	for _, c := range []struct {
		p   float64
		got float64
	}{{50, agg.P50}, {95, agg.P95}, {99, agg.P99}} {
		if want := stats.Percentile(vals, c.p); c.got != want {
			t.Fatalf("Aggregate p%g = %g, batch Percentile over the stored points %g", c.p, c.got, want)
		}
	}
	if newest := pts[len(pts)-1].Value; last != agg.Last || last != newest {
		t.Fatalf("Last = %g, Aggregate.Last = %g, newest stored point %g", last, agg.Last, newest)
	}
}
