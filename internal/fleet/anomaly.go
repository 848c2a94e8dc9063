package fleet

import (
	"fmt"
	"math"
	"sort"

	"hetpapi/internal/stats"
	"hetpapi/internal/telemetry"
)

// AnomalyConfig parameterizes the online outlier detector that runs
// over the streamed telemetry after a fleet run.
type AnomalyConfig struct {
	// Threshold is the robust z-score above which a machine is flagged
	// (<= 0 selects 4.0). With normally distributed data a robust
	// z-score of 4 is ~4 sigma; template populations are compared only
	// against themselves, so heterogeneous fleets don't cross-flag.
	Threshold float64
	// MinMachines is the smallest population a metric is scored over
	// (<= 0 selects 8): median/MAD over fewer machines is too noisy to
	// call anything an outlier.
	MinMachines int
}

func (c AnomalyConfig) withDefaults() AnomalyConfig {
	if c.Threshold <= 0 {
		c.Threshold = 4.0
	}
	if c.MinMachines <= 0 {
		c.MinMachines = 8
	}
	return c
}

// Anomaly is one flagged (machine, metric) pair: the machine's feature
// value against its template population's median and MAD, and the
// robust z-score that crossed the threshold.
type Anomaly struct {
	Machine  string  `json:"machine"`
	Template string  `json:"template"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	MAD      float64 `json:"mad"`
	Score    float64 `json:"score"`
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%s %s=%.6g vs median %.6g (MAD %.3g, score %.1f)",
		a.Machine, a.Metric, a.Value, a.Median, a.MAD, a.Score)
}

// robustScore is |x − median| / (1.4826·MAD + ε): the MAD estimates
// sigma for normal data when scaled by 1.4826, and the epsilon keeps a
// degenerate population (MAD 0, e.g. identical machines) from dividing
// by zero — then any deviation at all scores huge, which is the right
// call for a population that agrees exactly.
func robustScore(x, median, mad float64) float64 {
	return math.Abs(x-median) / (1.4826*mad + 1e-12)
}

// DetectAnomalies scores every machine's streamed rung summaries
// against its template population and returns the outliers, ordered by
// machine index then metric. Everything it reads is deterministic —
// per-series rung buckets are written by exactly one machine goroutine
// at simulated times, medians are computed over sorted copies, and
// machines are visited in fleet-index order — so the result is
// byte-identical across worker counts and safe to embed in the Report.
//
// The features per machine: mean package power (power_w), peak die
// temperature (temp_c max), final package energy (energy_j last), and
// the final total of each degradation tally. Counter series are left to
// /fleet/query: their magnitudes are workload-dependent in ways the
// robust z-score over a mixed-duration population would misread.
func DetectAnomalies(store *telemetry.Store, f *Fleet, cfg AnomalyConfig) []Anomaly {
	cfg = cfg.withDefaults()

	type feature struct {
		metric  string
		series  string
		extract func(b bucketSummary) float64
	}
	features := []feature{
		{"power_w_mean", "power_w", func(b bucketSummary) float64 { return b.mean }},
		{"temp_c_max", "temp_c", func(b bucketSummary) float64 { return b.max }},
		{"energy_j_last", "energy_j", func(b bucketSummary) float64 { return b.last }},
	}
	for _, d := range []string{"busy_retries", "deferred_starts", "multiplex_fallback",
		"hotplug_rebuilds", "stale_reads", "degraded_reads"} {
		d := d
		features = append(features, feature{
			metric:  "degradation_" + d,
			series:  telemetry.DegradationSeriesName(d),
			extract: func(b bucketSummary) float64 { return b.last },
		})
	}

	// Group machine indices by template: populations are compared only
	// against machines built from the same prototype.
	byTemplate := map[string][]int{}
	var templates []string
	for i := range f.Machines {
		tpl := f.Machines[i].Template
		if _, ok := byTemplate[tpl]; !ok {
			templates = append(templates, tpl)
		}
		byTemplate[tpl] = append(byTemplate[tpl], i)
	}
	sort.Strings(templates)

	type scored struct {
		machineIdx int
		a          Anomaly
	}
	var out []scored
	for _, tpl := range templates {
		idxs := byTemplate[tpl]
		if len(idxs) < cfg.MinMachines {
			continue
		}
		for _, ft := range features {
			var values []float64
			var members []int
			for _, i := range idxs {
				b, ok := summarize(store, f.Machines[i].ID, ft.series)
				if !ok {
					continue
				}
				values = append(values, ft.extract(b))
				members = append(members, i)
			}
			if len(values) < cfg.MinMachines {
				continue
			}
			med := stats.Median(values)
			devs := make([]float64, len(values))
			for i, v := range values {
				devs[i] = math.Abs(v - med)
			}
			mad := stats.Median(devs)
			for i, v := range values {
				if score := robustScore(v, med, mad); score > cfg.Threshold {
					out = append(out, scored{members[i], Anomaly{
						Machine:  f.Machines[members[i]].ID,
						Template: tpl,
						Metric:   ft.metric,
						Value:    v,
						Median:   med,
						MAD:      mad,
						Score:    score,
					}})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].machineIdx != out[j].machineIdx {
			return out[i].machineIdx < out[j].machineIdx
		}
		return out[i].a.Metric < out[j].a.Metric
	})
	anomalies := make([]Anomaly, 0, len(out))
	for _, s := range out {
		anomalies = append(anomalies, s.a)
	}
	return anomalies
}

// bucketSummary is the reduced window summary of one series' rung.
type bucketSummary struct {
	mean, min, max, last float64
	n                    int64
}

// summarize reads the series' 1s-rung summary over the whole retained
// window.
func summarize(store *telemetry.Store, machine, series string) (bucketSummary, bool) {
	b, ok := store.RungSummary(telemetry.Key{Machine: machine, Series: series}, telemetry.Rung1s, -1, -1)
	if !ok || b.N == 0 {
		return bucketSummary{}, false
	}
	return bucketSummary{mean: b.Mean(), min: b.Min, max: b.Max, last: b.Last, n: b.N}, true
}
