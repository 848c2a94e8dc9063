// Command perfbench is the repository's layer-attributed benchmark. It
// runs one seeded workload for a fixed time, checks the outputs, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as the last line of standard output. README.md in this
// directory describes the workloads, the metrics and the layer each one
// belongs to.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-chaos --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --capacity --seconds 5
//	bash perfbench/run.sh compare parent.jsonl change.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// heldOutSeed is the seed no tuning run uses. A later claim of a gain
// must also hold on it (choosing-metrics §6.3).
const heldOutSeed = 7919

// metricSpec names one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run; it mirrors
// BENCHMARK.json. The error rate is failed ÷ attempted of the result
// line itself, not a metric, because it reads 0 on a correct program.
// The serving p99 and the read median are per-layer metrics: on a shared
// 2-CPU host their run-to-run spread is wider than any bound a gate
// could use. The read's end-to-end figure is its mean; README.md says why.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"sim_throughput", "sim-s/s"},
	{"alloc_bytes_per_sim_s", "B/sim-s"},
	{"read_mean_ns", "ns"},
	{"read_p99_ns", "ns"},
	{"alloc_bytes_per_read", "B"},
	{"serve_p50_ms", "ms"},
}

// perLayer lists the metrics of a traced run; it mirrors BENCHMARK.json.
func perLayer() []metricSpec {
	out := []metricSpec{
		{"scenario.audit.ns_per_tick", "ns"},
		{"scenario.audit.share", "ratio"},
		{"scenario.audit.ratio", "ratio"},
	}
	for _, name := range invariantNames() {
		out = append(out, metricSpec{"scenario.invariant." + name + ".ns_per_tick", "ns"})
	}
	out = append(out,
		metricSpec{"perfevent.syscalls_per_tick", "count"},
		metricSpec{"sim.ns_per_tick", "ns"},
		metricSpec{"sim.share", "ratio"},
		metricSpec{"sim.ticks", "count"},
		metricSpec{"fleet.streamer.ns_per_point", "ns"},
		metricSpec{"fleet.streamer.share", "ratio"},
		metricSpec{"fleet.streamer.points", "count"},
		metricSpec{"fleet.generate.ms", "ms"},
		metricSpec{"fleet.anomaly.ms", "ms"},
		metricSpec{"core.read.ns_p50", "ns"},
		metricSpec{"core.mux_read.ns_p50", "ns"},
		metricSpec{"core.start_stop.ns_p50", "ns"},
		metricSpec{"core.read.allocs", "count"},
		metricSpec{"core.mux_read.allocs", "count"},
		metricSpec{"core.read.share", "ratio"},
		metricSpec{"perfevent.syscalls_per_read", "count"},
		metricSpec{"sim.step.ns_p50", "ns"},
	)
	out = append(out, metricSpec{"serve_p99_ms", "ms"})
	for _, e := range endpoints {
		out = append(out,
			metricSpec{"http." + e.name + ".p50_ms", "ms"},
			metricSpec{"http." + e.name + ".tail_ms", "ms"},
			metricSpec{"http." + e.name + ".server_p50_ms", "ms"},
		)
	}
	return append(out,
		metricSpec{"http.allocs_per_request", "count"},
		metricSpec{"http.bytes_per_request", "B"},
		metricSpec{"runtime.allocs_per_tick", "count"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"loadgen.lag_p99_ms", "ms"},
		metricSpec{"loadgen.max_backlog", "count"},
		metricSpec{"trace_overhead", "ratio"},
	)
}

// metrics collects measured values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord pins down where and how a result was measured.
type runRecord struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Command     string `json:"command"`
}

// outcome is what a workload run hands back.
type outcome struct {
	m         metrics
	attempted int
	failed    int
	detail    map[string]any
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	record   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	var capacity bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 35, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.record, "record", "", "append the run record and result as one JSON line to this file")
	flag.BoolVar(&capacity, "capacity", false, "measure the closed-loop serving capacity during ingest and exit")
	flag.Parse()
	o.trace = trace == 1
	if err := run(context.Background(), o, capacity, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, capacity bool, stdout io.Writer) error {
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("--seconds %d outside 1..60", o.seconds)
	}
	if capacity {
		return measureCapacity(ctx, o, stdout)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	rec := runRecord{
		Workload: o.workload, Seed: o.seed, HeldOutSeed: heldOutSeed, Seconds: o.seconds, Trace: o.trace,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: envOr("PERFBENCH_COMMIT", "unknown"),
		Command: envOr("PERFBENCH_COMMAND", strings.Join(os.Args, " ")),
	}

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	out, err := wl(ctx, o)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&gc1)
	out.m.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))

	specs := endToEnd
	if o.trace {
		specs = perLayer()
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := out.m[s.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	out.detail["error_rate"] = float64(out.failed) / float64(out.attempted)

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"run_record": rec}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"detail": out.detail}); err != nil {
		return err
	}
	if o.record != "" {
		if err := appendRecord(o.record, rec, res); err != nil {
			return err
		}
	}
	return enc.Encode(res)
}

// appendRecord appends one JSON line holding the run record and result,
// the unit the comparator reads.
func appendRecord(path string, rec runRecord, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open record file: %w", err)
	}
	line, err := json.Marshal(map[string]any{"record": rec, "result": res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write record file: %w", err)
	}
	return f.Close()
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

// cpuModel reads the host CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
