package telemetry

import (
	"fmt"
	"net/url"
	"strconv"
)

// Wire types of the hetpapid HTTP JSON API, shared by the server, the
// client package and the daemon's tests.

// Point is one stored sample.
type Point struct {
	TimeSec float64 `json:"t"`
	Value   float64 `json:"v"`
}

// Aggregate is the streaming summary of a series: lifetime moments from
// the Welford accumulator, percentiles over the recent window.
type Aggregate struct {
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Last   float64 `json:"last"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// TypeAggregate is one core type's merged aggregate over its member
// counter series (per-core-type sum/mean/percentiles).
type TypeAggregate struct {
	// Type is the core type name ("P-core", "LITTLE", ...).
	Type string `json:"type"`
	// Series is the number of member series merged.
	Series int `json:"series"`
	// LastSum is the sum of the members' latest values — for cumulative
	// counter series, the live system-wide per-type total.
	LastSum float64 `json:"last_sum"`
	// Agg is the merged aggregate of the members' samples.
	Agg Aggregate `json:"agg"`
}

// HealthInfo is the /health payload.
type HealthInfo struct {
	Status    string  `json:"status"`
	UptimeSec float64 `json:"uptime_sec"`
	Machines  int     `json:"machines"`
	Series    int     `json:"series"`
}

// MachineInfo is one entry of the /machines payload: a collector
// goroutine's identity and its self-overhead accounting.
type MachineInfo struct {
	// Name is the machine id (the daemon uses the scenario name).
	Name string `json:"name"`
	// Scenario and Model echo the spec driving this machine.
	Scenario string `json:"scenario"`
	Model    string `json:"model"`
	// Running reports whether a collection run is in flight.
	Running bool `json:"running"`
	// Runs counts completed scenario runs (loop mode restarts).
	Runs int64 `json:"runs"`
	// Ticks is the number of simulator ticks observed.
	Ticks int64 `json:"ticks"`
	// SimSec is the simulated time covered so far.
	SimSec float64 `json:"sim_sec"`
	// IngestSec is the wall-clock time spent inside the telemetry hook;
	// WallSec is the wall-clock span of the whole run loop. Their ratio
	// and the per-tick cost are the collector's self-overhead gauge.
	IngestSec          float64 `json:"ingest_sec"`
	WallSec            float64 `json:"wall_sec"`
	OverheadPerTickSec float64 `json:"overhead_per_tick_sec"`
	OverheadRatio      float64 `json:"overhead_ratio"`
}

// SeriesInfo is one entry of the /series payload.
type SeriesInfo struct {
	Name string `json:"name"`
	// Points is the raw ring fill (at most Capacity); Agg.Count is the
	// lifetime ingested sample count.
	Points int       `json:"points"`
	Agg    Aggregate `json:"agg"`
}

// QueryRequest parameterizes /query. Exactly one of Series or Kind must
// be set: Series asks for one series' points (and, with Agg, its
// streaming aggregate); Kind with By="type" asks for the per-core-type
// grouped aggregates of that counter kind.
type QueryRequest struct {
	Machine string
	Series  string
	// FromSec/ToSec bound the returned points; zero or negative means
	// open (the zero value queries the whole window).
	FromSec float64
	ToSec   float64
	// Agg attaches the streaming aggregate to a series query.
	Agg bool
	// Kind selects a counter kind ("instructions", "cycles", "llc-refs",
	// "llc-misses") for a By="type" grouped query.
	Kind string
	By   string
	// Rung selects a downsampling resolution ("1s", "10s", "1m"):
	// the response then carries bucket aggregates instead of raw
	// points. Empty (or "raw") returns the raw ring.
	Rung string
}

// Values encodes the request as URL query parameters.
func (q QueryRequest) Values() url.Values {
	v := url.Values{}
	v.Set("machine", q.Machine)
	if q.Series != "" {
		v.Set("series", q.Series)
	}
	if q.FromSec > 0 {
		v.Set("from", strconv.FormatFloat(q.FromSec, 'f', -1, 64))
	}
	if q.ToSec > 0 {
		v.Set("to", strconv.FormatFloat(q.ToSec, 'f', -1, 64))
	}
	if q.Agg {
		v.Set("agg", "1")
	}
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	if q.By != "" {
		v.Set("by", q.By)
	}
	if q.Rung != "" {
		v.Set("rung", q.Rung)
	}
	return v
}

// QueryResponse is the /query payload.
type QueryResponse struct {
	Machine string `json:"machine"`
	Series  string `json:"series,omitempty"`
	// Points holds the series points in range (series queries).
	Points []Point `json:"points,omitempty"`
	// Aggregate is the series' streaming aggregate (series queries with
	// agg=1).
	Aggregate *Aggregate `json:"aggregate,omitempty"`
	// Groups holds the per-core-type aggregates (by=type queries).
	Groups []TypeAggregate `json:"groups,omitempty"`
	// Rung and Buckets hold the downsampled view (rung= queries):
	// bucket aggregates at the requested resolution, the still-open
	// bucket last.
	Rung    string      `json:"rung,omitempty"`
	Buckets []RungPoint `json:"buckets,omitempty"`
}

// MeasureValueInfo is one probe event's latest reading in the
// /degradations payload.
type MeasureValueInfo struct {
	Event      string  `json:"event"`
	Final      float64 `json:"final"`
	ErrorBound float64 `json:"error_bound"`
}

// DegradationInfo is one machine's entry of the /degradations payload:
// the latest graceful-degradation tallies and per-event probe readings,
// assembled from the degradation/* and measure/* series the collector
// exports. Machines without a measurement probe are omitted.
type DegradationInfo struct {
	Machine string `json:"machine"`
	// Counters maps tally names (busy_retries, deferred_starts,
	// multiplex_fallback, hotplug_rebuilds, stale_reads, degraded_reads)
	// to their latest values.
	Counters map[string]float64 `json:"counters"`
	// Events holds the probe's latest per-event values.
	Events []MeasureValueInfo `json:"events,omitempty"`
}

// APIError is the JSON error body every non-200 endpoint response
// carries.
type APIError struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
}

func (e APIError) String() string {
	return fmt.Sprintf("http %d: %s", e.Status, e.Error)
}
