package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"hetpapi/internal/stats"
)

// FleetQueryRequest selects a population-wide aggregate view: one
// downsampled rung (raw is rejected — population queries must never
// touch raw rings), an optional time window, and optional filters on
// core type, event kind, machine-id prefix and fleet template.
type FleetQueryRequest struct {
	Rung     Rung
	FromSec  float64 // negative = open
	ToSec    float64 // negative = open
	Type     string  // filter: core type ("P-core", "machine", "degradation", ...)
	Kind     string  // filter: event kind ("instructions", "power_w", ...)
	Template string  // filter: fleet template tag (via Store.SetMeta)
	Machine  string  // filter: machine-id prefix
	Timeline bool    // include the merged per-bucket timeline per group
}

// FleetGroup is the aggregate of one (core type, event kind) pair across
// every matching machine in the window.
type FleetGroup struct {
	Type     string `json:"type"`
	Kind     string `json:"kind"`
	Machines int    `json:"machines"`
	Series   int    `json:"series"`
	// Buckets is the number of rung buckets merged; Samples the raw
	// samples those buckets ingested.
	Buckets int64 `json:"buckets"`
	Samples int64 `json:"samples"`
	// Merged is the exact merge of every window bucket: total sample
	// mass and the population-wide envelope.
	Merged stats.Bucket `json:"merged"`
	// Mean/Stddev/P50/P95/P99 describe the distribution of per-bucket
	// means — how the signal varies across machines and across time
	// within the window.
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	// LastSum is the sum over member series of their freshest window
	// value — for cumulative counters, the fleet-wide total.
	LastSum float64 `json:"last_sum"`
	// Timeline, when requested, is the bucket-mean time series merged
	// across all member series (one point per distinct bucket start).
	Timeline []Point `json:"timeline,omitempty"`
}

// FleetQueryResponse is the population aggregate over one rung/window.
type FleetQueryResponse struct {
	Rung     string       `json:"rung"`
	FromSec  float64      `json:"from_sec"`
	ToSec    float64      `json:"to_sec"`
	Machines int          `json:"machines"`
	Groups   []FleetGroup `json:"groups"`
}

// seriesWindow is one series' contribution: its key plus the window
// buckets copied out under the shard read lock.
type seriesWindow struct {
	key      Key
	typeName string
	kind     string
	buckets  []RungPoint
}

// FleetQuery aggregates the selected rung across the whole population.
//
// The first pass walks the shards under their read locks and copies out
// only the rung buckets inside the window — bounded by RungCapacity per
// series, never the raw rings. The second pass sorts contributions by
// series key and folds them in that order, so every floating-point
// accumulation happens in a deterministic sequence: the response is
// byte-identical no matter how many goroutines wrote the data or how
// the shard maps iterate.
func (st *Store) FleetQuery(req FleetQueryRequest) (FleetQueryResponse, error) {
	if req.Rung <= RungRaw || req.Rung >= numRungs {
		return FleetQueryResponse{}, fmt.Errorf("fleet query needs a downsampled rung (1s, 10s or 1m), got %q", req.Rung)
	}
	var wins []seriesWindow
	for _, sh := range st.shards {
		sh.mu.RLock()
		for k, s := range sh.series {
			typeName, kind, ok := parseEventSeries(k.Series)
			if !ok {
				continue
			}
			if req.Type != "" && typeName != req.Type {
				continue
			}
			if req.Kind != "" && kind != req.Kind {
				continue
			}
			if req.Machine != "" && !strings.HasPrefix(k.Machine, req.Machine) {
				continue
			}
			buckets := s.rungs[req.Rung-1].appendWindow(req.FromSec, req.ToSec, nil)
			if len(buckets) == 0 {
				continue
			}
			wins = append(wins, seriesWindow{key: k, typeName: typeName, kind: kind, buckets: buckets})
		}
		sh.mu.RUnlock()
	}
	if req.Template != "" {
		filtered := wins[:0]
		for _, w := range wins {
			if st.Meta(w.key.Machine).Template == req.Template {
				filtered = append(filtered, w)
			}
		}
		wins = filtered
	}
	sort.Slice(wins, func(i, j int) bool {
		a, b := wins[i], wins[j]
		if a.typeName != b.typeName {
			return a.typeName < b.typeName
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.key.Machine != b.key.Machine {
			return a.key.Machine < b.key.Machine
		}
		return a.key.Series < b.key.Series
	})

	resp := FleetQueryResponse{Rung: req.Rung.String(), FromSec: req.FromSec, ToSec: req.ToSec}
	allMachines := map[string]bool{}
	for i := 0; i < len(wins); {
		j := i
		for j < len(wins) && wins[j].typeName == wins[i].typeName && wins[j].kind == wins[i].kind {
			j++
		}
		g := FleetGroup{Type: wins[i].typeName, Kind: wins[i].kind}
		var w stats.Welford
		var means []float64
		machines := map[string]bool{}
		timeline := map[float64]*stats.Bucket{}
		var times []float64
		for _, sw := range wins[i:j] {
			g.Series++
			machines[sw.key.Machine] = true
			allMachines[sw.key.Machine] = true
			for _, bp := range sw.buckets {
				g.Buckets++
				g.Samples += bp.Agg.N
				g.Merged.Merge(bp.Agg)
				m := bp.Agg.Mean()
				w.Add(m)
				means = append(means, m)
				if req.Timeline {
					tb := timeline[bp.TimeSec]
					if tb == nil {
						tb = &stats.Bucket{}
						timeline[bp.TimeSec] = tb
						times = append(times, bp.TimeSec)
					}
					tb.Merge(bp.Agg)
				}
			}
			g.LastSum += sw.buckets[len(sw.buckets)-1].Agg.Last
		}
		g.Machines = len(machines)
		g.Mean = w.Mean()
		g.Stddev = w.Stddev()
		sort.Float64s(means)
		g.P50 = stats.PercentileSorted(means, 50)
		g.P95 = stats.PercentileSorted(means, 95)
		g.P99 = stats.PercentileSorted(means, 99)
		if req.Timeline {
			sort.Float64s(times)
			g.Timeline = make([]Point, 0, len(times))
			for _, t := range times {
				g.Timeline = append(g.Timeline, Point{TimeSec: t, Value: timeline[t].Mean()})
			}
		}
		resp.Groups = append(resp.Groups, g)
		i = j
	}
	resp.Machines = len(allMachines)
	return resp, nil
}

// RungSummary merges every window bucket of one series' rung into a
// single aggregate — the per-machine feature the anomaly detector
// scores. The bool reports whether the series exists and had any
// bucket in the window.
func (st *Store) RungSummary(k Key, r Rung, fromSec, toSec float64) (stats.Bucket, bool) {
	pts, ok := st.RungRange(k, r, fromSec, toSec)
	if !ok || len(pts) == 0 {
		return stats.Bucket{}, false
	}
	var b stats.Bucket
	for _, p := range pts {
		b.Merge(p.Agg)
	}
	return b, true
}
