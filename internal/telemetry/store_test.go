package telemetry

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hetpapi/internal/stats"
)

func TestStoreRingWrapAndSnapshot(t *testing.T) {
	st := NewStore(Config{Capacity: 4, Shards: 2})
	k := Key{"m", "s"}
	for i := 0; i < 6; i++ {
		st.Append(k, float64(i), float64(i*10))
	}
	pts, ok := st.Snapshot(k)
	if !ok {
		t.Fatal("series missing")
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4 (ring capacity)", len(pts))
	}
	for i, p := range pts {
		wantT := float64(i + 2)
		if p.TimeSec != wantT || p.Value != wantT*10 {
			t.Fatalf("point %d = %+v, want t=%g v=%g", i, p, wantT, wantT*10)
		}
	}
	if st.Len(k) != 4 {
		t.Fatalf("Len = %d, want 4", st.Len(k))
	}
	if _, ok := st.Snapshot(Key{"m", "absent"}); ok {
		t.Fatal("absent series reported present")
	}
}

func TestStoreRange(t *testing.T) {
	st := NewStore(Config{})
	k := Key{"m", "s"}
	for i := 0; i < 10; i++ {
		st.Append(k, float64(i), float64(i))
	}
	pts, ok := st.Range(k, 3, 6)
	if !ok || len(pts) != 4 || pts[0].TimeSec != 3 || pts[3].TimeSec != 6 {
		t.Fatalf("Range(3,6) = %v ok=%v", pts, ok)
	}
	if pts, ok := st.Range(k, -1, -1); !ok || len(pts) != 10 {
		t.Fatalf("open range returned %d points", len(pts))
	}
	if pts, ok := st.Range(k, 100, 200); !ok || len(pts) != 0 {
		t.Fatalf("empty range = %v ok=%v, want [] true", pts, ok)
	}
	if _, ok := st.Range(Key{"m", "absent"}, -1, -1); ok {
		t.Fatal("absent series must report ok=false")
	}
}

func TestStoreAggregateMatchesBatch(t *testing.T) {
	st := NewStore(Config{Capacity: 128})
	k := Key{"m", "s"}
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64() * 10
		xs = append(xs, x)
		st.Append(k, float64(i), x)
	}
	agg, ok := st.Aggregate(k)
	if !ok {
		t.Fatal("series missing")
	}
	if agg.Count != 500 {
		t.Fatalf("count %d", agg.Count)
	}
	if got, want := agg.Mean, stats.Mean(xs); got != want && (got-want)/want > 1e-12 {
		t.Fatalf("mean %g vs %g", got, want)
	}
	// Percentiles are windowed over the last Capacity raw samples.
	window := xs[len(xs)-128:]
	for _, c := range []struct {
		p    float64
		got  float64
		name string
	}{{50, agg.P50, "p50"}, {95, agg.P95, "p95"}, {99, agg.P99, "p99"}} {
		if want := stats.Percentile(window, c.p); c.got != want {
			t.Fatalf("%s = %g, want windowed %g", c.name, c.got, want)
		}
	}
}

func TestStoreKeysMachinesSeries(t *testing.T) {
	st := NewStore(Config{Shards: 3})
	st.Append(Key{"b", "y"}, 0, 1)
	st.Append(Key{"a", "z"}, 0, 1)
	st.Append(Key{"a", "x"}, 0, 1)
	keys := st.Keys()
	want := []Key{{"a", "x"}, {"a", "z"}, {"b", "y"}}
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	if ms := st.Machines(); len(ms) != 2 || ms[0] != "a" || ms[1] != "b" {
		t.Fatalf("machines = %v", ms)
	}
	if ss := st.SeriesOf("a"); len(ss) != 2 || ss[0] != "x" || ss[1] != "z" {
		t.Fatalf("series of a = %v", ss)
	}
	if st.NumSeries() != 3 {
		t.Fatalf("NumSeries = %d", st.NumSeries())
	}
}

func TestStoreTypeAggregates(t *testing.T) {
	st := NewStore(Config{Capacity: 64})
	// Two P-core CPUs and one E-core CPU reporting cumulative counts.
	var pvals []float64
	for i := 0; i < 20; i++ {
		v0, v1, v2 := float64(100*i), float64(200*i), float64(10*i)
		st.Append(Key{"m", CounterSeriesName(0, "P-core", "instructions")}, float64(i), v0)
		st.Append(Key{"m", CounterSeriesName(1, "P-core", "instructions")}, float64(i), v1)
		st.Append(Key{"m", CounterSeriesName(2, "E-core", "instructions")}, float64(i), v2)
		// Decoy series that must not be grouped.
		st.Append(Key{"m", CounterSeriesName(0, "P-core", "cycles")}, float64(i), 1)
		pvals = append(pvals, v0, v1)
	}
	st.Append(Key{"m", "power_w"}, 0, 42)

	groups := st.TypeAggregates("m", "instructions")
	if len(groups) != 2 {
		t.Fatalf("got %d groups: %+v", len(groups), groups)
	}
	e, p := groups[0], groups[1] // sorted by type name
	if e.Type != "E-core" || p.Type != "P-core" {
		t.Fatalf("group order %q,%q", e.Type, p.Type)
	}
	if p.Series != 2 || e.Series != 1 {
		t.Fatalf("member counts p=%d e=%d", p.Series, e.Series)
	}
	if p.LastSum != 100*19+200*19 {
		t.Fatalf("P-core LastSum = %g", p.LastSum)
	}
	if p.Agg.Count != 40 {
		t.Fatalf("P-core merged count = %d", p.Agg.Count)
	}
	if want := stats.Mean(pvals); p.Agg.Mean != want && (p.Agg.Mean-want)/want > 1e-12 {
		t.Fatalf("P-core merged mean %g vs %g", p.Agg.Mean, want)
	}
	if got := st.TypeAggregates("m", "no-such-kind"); len(got) != 0 {
		t.Fatalf("unexpected groups %v", got)
	}
}

// TestStoreConcurrentIngestAndQuery hammers the store with parallel
// writers and readers; run under -race this is the ingest/query data-race
// check the acceptance criteria require.
func TestStoreConcurrentIngestAndQuery(t *testing.T) {
	st := NewStore(Config{Capacity: 256, Shards: 4})
	const writers, samples = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := Key{"m", fmt.Sprintf("s%d", w%4)} // overlap keys across writers
			for i := 0; i < samples; i++ {
				st.Append(k, float64(i), float64(i+w))
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := Key{"m", fmt.Sprintf("s%d", r)}
				st.Snapshot(k)
				st.Range(k, 10, 100)
				st.Aggregate(k)
				st.Keys()
				st.TypeAggregates("m", "instructions")
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	var total int64
	for _, k := range st.Keys() {
		agg, _ := st.Aggregate(k)
		total += agg.Count
	}
	if total != writers*samples {
		t.Fatalf("ingested %d samples, want %d", total, writers*samples)
	}
}
