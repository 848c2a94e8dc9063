package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"hetpapi/internal/stats"
)

// Aggregate is one metric's distribution across the fleet's machines:
// streaming moments from a Welford accumulator plus quantiles over every
// machine's value, both fed in machine-index order so the figures are
// identical at any worker count.
type Aggregate struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Sum    float64 `json:"sum"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// agg accumulates one metric across machines: a Welford for the moments
// and the values themselves, sorted once by finish for the quantiles.
type agg struct {
	w  stats.Welford
	vs []float64
}

// add ingests one machine's value. NaN is dropped, as Welford drops it,
// so the quantiles and the moments cover the same samples.
func (a *agg) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	a.w.Add(v)
	a.vs = append(a.vs, v)
}

func (a *agg) finish() Aggregate {
	if a.w.N() == 0 {
		return Aggregate{}
	}
	sort.Float64s(a.vs)
	return Aggregate{
		N:      a.w.N(),
		Mean:   a.w.Mean(),
		Stddev: a.w.Stddev(),
		Min:    a.w.Min(),
		Max:    a.w.Max(),
		Sum:    a.w.Sum(),
		P50:    stats.PercentileSorted(a.vs, 50),
		P95:    stats.PercentileSorted(a.vs, 95),
		P99:    stats.PercentileSorted(a.vs, 99),
	}
}

// Incident is one ledger entry: a fault-plan transition, an invariant
// violation, a panic, or a machine that failed to complete.
type Incident struct {
	Machine  string `json:"machine"`
	Template string `json:"template"`
	// Kind is "fault", "invariant", "panic", "error", "stopped" or
	// "incomplete".
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// TemplateCount reports how many machines one template expanded into.
type TemplateCount struct {
	Template string `json:"template"`
	Machines int    `json:"machines"`
}

// Report is the fleet roll-up: population and outcome counts, the
// per-core-type counter distributions across machines, fleet-wide
// energy/elapsed/Gflops distributions, summed degradation tallies, the
// incident ledger, and a digest over every machine's behavioral digest.
// Everything in it derives from (seed, config) alone — no wall-clock
// times, worker counts or map iteration orders — so the marshalled JSON
// is byte-identical across runs and machine parallelism levels.
type Report struct {
	Seed       int64           `json:"seed"`
	Machines   int             `json:"machines"`
	Templates  []TemplateCount `json:"templates"`
	StaggerSec float64         `json:"stagger_sec,omitempty"`

	ChaosMachines int `json:"chaos_machines"`
	Completed     int `json:"completed"`
	Stopped       int `json:"stopped"`
	Skipped       int `json:"skipped"`
	Panics        int `json:"panics"`
	Errors        int `json:"errors"`

	// MachineSimSec is the summed simulated duration across machines —
	// the numerator of the fleet throughput benchmark.
	MachineSimSec float64 `json:"machine_sim_sec"`
	EnergyJ       float64 `json:"energy_j"`

	// ByType maps core type name -> counter name -> the distribution of
	// that per-machine counter delta across every machine exposing the
	// type ("P-core"/"instructions": mean/min/max/p95 across the fleet's
	// Raptor Lake population).
	ByType map[string]map[string]Aggregate `json:"by_type"`

	Elapsed Aggregate `json:"elapsed"`
	Energy  Aggregate `json:"energy"`
	// Gflops aggregates over machines that ran HPL (Gflops > 0).
	Gflops Aggregate `json:"gflops"`

	// Degradations sums the measurement-degradation tallies of every
	// machine that carried a PAPI probe.
	Degradations map[string]int `json:"degradations"`

	Incidents []Incident `json:"incidents"`

	// Anomalies holds the robust z-score outliers the detector flagged
	// over the streamed rung summaries (present only when a run had
	// both streaming and anomaly detection enabled). Each is mirrored
	// into the incident ledger under kind "anomaly". Deterministic: the
	// detector reads only seed-derived simulated data in machine-index
	// order.
	Anomalies []Anomaly `json:"anomalies,omitempty"`

	// Digest chains every machine's behavioral digest in index order;
	// it is the one-line fingerprint the determinism sweep compares.
	Digest string `json:"digest"`

	// Results holds the per-machine outcomes, in machine-index order.
	Results []MachineResult `json:"results,omitempty"`
}

// buildReport rolls results (indexed by machine) up into a Report. It
// runs strictly in machine-index order after the worker pool has
// drained, which is what makes the report independent of worker count.
func buildReport(f *Fleet, results []MachineResult) *Report {
	r := &Report{
		Seed:         f.Config.Seed,
		Machines:     len(f.Machines),
		StaggerSec:   f.Config.StaggerSec,
		ByType:       map[string]map[string]Aggregate{},
		Degradations: map[string]int{},
	}
	templates := f.Config.Templates
	if templates == nil {
		templates = DefaultTemplates()
	}
	// Hand-built fleets (tests, adapters) may lack Counts; recover the
	// per-template tally from the machines themselves then.
	if len(f.Counts) == len(templates) {
		for i, t := range templates {
			r.Templates = append(r.Templates, TemplateCount{Template: t.Name, Machines: f.Counts[i]})
		}
	} else {
		counts := map[string]int{}
		for _, ms := range f.Machines {
			counts[ms.Template]++
		}
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.Templates = append(r.Templates, TemplateCount{Template: name, Machines: counts[name]})
		}
	}
	for _, ms := range f.Machines {
		if ms.ChaosProfile != nil {
			r.ChaosMachines++
		}
	}

	elapsed, energy, gflops := &agg{}, &agg{}, &agg{}
	byType := map[string]map[string]*agg{}
	digest := sha256.New()
	fmt.Fprintf(digest, "fleet seed=%d n=%d\n", f.Config.Seed, len(f.Machines))

	for i := range results {
		mr := &results[i]
		switch {
		case mr.Skipped:
			r.Skipped++
		case mr.Panicked:
			r.Panics++
			r.Incidents = append(r.Incidents, Incident{
				Machine: mr.ID, Template: mr.Template, Kind: "panic", Detail: mr.PanicMsg})
		case mr.Error != "":
			r.Errors++
			r.Incidents = append(r.Incidents, Incident{
				Machine: mr.ID, Template: mr.Template, Kind: "error", Detail: mr.Error})
		default:
			if mr.Completed {
				r.Completed++
			} else if mr.Stopped {
				r.Stopped++
				r.Incidents = append(r.Incidents, Incident{
					Machine: mr.ID, Template: mr.Template, Kind: "stopped",
					Detail: fmt.Sprintf("cancelled at t=%.3fs with %d/%d workloads done",
						mr.ElapsedSec, mr.WorkloadsDone, mr.WorkloadsTotal)})
			} else {
				r.Incidents = append(r.Incidents, Incident{
					Machine: mr.ID, Template: mr.Template, Kind: "incomplete",
					Detail: fmt.Sprintf("%d/%d workloads done at MaxSeconds",
						mr.WorkloadsDone, mr.WorkloadsTotal)})
			}
			r.MachineSimSec += mr.ElapsedSec
			r.EnergyJ += mr.EnergyJ
			elapsed.add(mr.ElapsedSec)
			energy.add(mr.EnergyJ)
			if mr.Gflops > 0 {
				gflops.add(mr.Gflops)
			}
			// Type names are iterated sorted so accumulator creation
			// order (and thus nothing) depends on map order; each
			// accumulator is fed in machine-index order.
			typeNames := make([]string, 0, len(mr.ByType))
			for name := range mr.ByType {
				typeNames = append(typeNames, name)
			}
			sort.Strings(typeNames)
			for _, name := range typeNames {
				tc := mr.ByType[name]
				m := byType[name]
				if m == nil {
					m = map[string]*agg{
						"instructions": {}, "cycles": {}, "llc_refs": {}, "llc_misses": {},
					}
					byType[name] = m
				}
				m["instructions"].add(tc.Instructions)
				m["cycles"].add(tc.Cycles)
				m["llc_refs"].add(tc.LLCRefs)
				m["llc_misses"].add(tc.LLCMisses)
			}
			if d := mr.Degradations; d != nil {
				r.Degradations["busy_retries"] += d.BusyRetries
				r.Degradations["retry_ticks"] += d.RetryTicks
				r.Degradations["deferred_starts"] += d.DeferredStarts
				r.Degradations["multiplex_fallback"] += d.MultiplexFallback
				r.Degradations["hotplug_rebuilds"] += d.HotplugRebuilds
				r.Degradations["stale_reads"] += d.StaleReads
				r.Degradations["degraded_reads"] += d.DegradedReads
				r.Degradations["monotonic_clamps"] += d.MonotonicClamps
			}
		}
		for _, line := range mr.FaultTrace {
			r.Incidents = append(r.Incidents, Incident{
				Machine: mr.ID, Template: mr.Template, Kind: "fault", Detail: line})
		}
		for _, v := range mr.Violations {
			r.Incidents = append(r.Incidents, Incident{
				Machine: mr.ID, Template: mr.Template, Kind: "invariant", Detail: v})
		}
		fmt.Fprintf(digest, "%s %s sim=%.9f digest=%s\n",
			mr.ID, outcomeWord(mr), mr.ElapsedSec, mr.Digest)
	}

	r.Elapsed = elapsed.finish()
	r.Energy = energy.finish()
	r.Gflops = gflops.finish()
	for name, m := range byType {
		out := make(map[string]Aggregate, len(m))
		for k, a := range m {
			out[k] = a.finish()
		}
		r.ByType[name] = out
	}
	r.Digest = hex.EncodeToString(digest.Sum(nil))
	r.Results = results
	return r
}

// attachAnomalies records the detector's output on the report and
// mirrors each anomaly into the incident ledger. Called after
// buildReport, in the anomalies' (machine-index, metric) order, so the
// ledger stays deterministic.
func (r *Report) attachAnomalies(anomalies []Anomaly) {
	r.Anomalies = anomalies
	for _, a := range anomalies {
		r.Incidents = append(r.Incidents, Incident{
			Machine: a.Machine, Template: a.Template, Kind: "anomaly", Detail: a.String()})
	}
}

func outcomeWord(mr *MachineResult) string {
	switch {
	case mr.Skipped:
		return "skipped"
	case mr.Panicked:
		return "panicked"
	case mr.Error != "":
		return "error"
	case mr.Completed:
		return "completed"
	case mr.Stopped:
		return "stopped"
	default:
		return "incomplete"
	}
}

// WriteJSON marshals the report (indented, trailing newline). The bytes
// are a pure function of (seed, generator config): Go's encoder sorts
// map keys and every field is derived in machine-index order.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Compact returns a copy of the report without the per-machine results
// array, for transports where only the roll-up matters (the /fleet
// telemetry endpoint serves this form by default).
func (r *Report) Compact() *Report {
	c := *r
	c.Results = nil
	return &c
}

// Summary renders a short human-readable digest of the report for CLI
// output.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet seed=%d machines=%d", r.Seed, r.Machines)
	for _, tc := range r.Templates {
		fmt.Fprintf(&b, " %s=%d", tc.Template, tc.Machines)
	}
	fmt.Fprintf(&b, "\n  completed=%d stopped=%d skipped=%d panics=%d errors=%d chaos=%d incidents=%d",
		r.Completed, r.Stopped, r.Skipped, r.Panics, r.Errors, r.ChaosMachines, len(r.Incidents))
	if len(r.Anomalies) > 0 {
		fmt.Fprintf(&b, " anomalies=%d", len(r.Anomalies))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  machine-sim-sec=%.3f energy=%.1fJ elapsed p50=%.3fs p95=%.3fs\n",
		r.MachineSimSec, r.EnergyJ, r.Elapsed.P50, r.Elapsed.P95)
	typeNames := make([]string, 0, len(r.ByType))
	for name := range r.ByType {
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	for _, name := range typeNames {
		ins := r.ByType[name]["instructions"]
		fmt.Fprintf(&b, "  %-8s machines=%d instructions mean=%.3g p95=%.3g\n",
			name, ins.N, ins.Mean, ins.P95)
	}
	fmt.Fprintf(&b, "  digest=%s\n", r.Digest[:16])
	return b.String()
}
