// Command hetpapid is the telemetry collector daemon: it runs one or more
// reference scenarios concurrently (one collector goroutine per simulated
// machine), streams every tick's hybrid counters, power, energy,
// frequency and temperature into the sharded time-series store, and
// serves live queries over HTTP while collection is hot:
//
//	GET /health            liveness + store totals
//	GET /machines          per-machine collector status and self-overhead
//	GET /series?machine=M  series inventory
//	GET /query?machine=M&series=power_w&agg=1
//	GET /query?machine=M&kind=instructions&by=type
//	GET /degradations      latest probe degradation tallies per machine
//	GET /trace?machine=M   live span trace as Perfetto JSON
//	GET /profile?machine=M statistical profile as gzipped pprof proto
//	GET /fleet             latest fleet roll-up report (with -fleet N)
//	GET /fleet/query       population aggregates over the streamed fleet
//	GET /fleet/ui          self-contained live fleet dashboard
//	GET /validate          startup counter-accuracy scorecard
//	GET /metrics           Prometheus-style text exposition
//	GET /status            serving-path telemetry: per-endpoint latency,
//	                       errors, SLO attainment, slow-request ring
//
// Fault scenarios (reference scenarios carrying a Measure probe) also
// stream the probe's degradation-aware values and graceful-degradation
// tallies as measure/* and degradation/* series, surfaced by the
// /degradations view.
//
// Usage:
//
//	hetpapid [-addr :8080] [-scenarios all|name,name,...] [-loop]
//	         [-capacity N] [-shards S] [-every T]
//	         [-request-timeout D] [-trace-capacity N]
//	         [-slo-latency-ms 250] [-slo-error-pct 1]
//	         [-profile] [-profile-period N] [-validate]
//	         [-fleet N] [-fleet-seed S] [-fleet-stagger W]
//	         [-fleet-chaos R] [-fleet-workers P]
//	         [-fleet-stream] [-fleet-anomaly 4.0]
//
// With -fleet N the daemon additionally runs an N-machine simulated
// fleet (default template mix, seed-derived chaos plans on a -fleet-chaos
// fraction of machines) on a bounded worker pool and serves the roll-up
// report — per-core-type aggregates across machines, the incident
// ledger, and the fleet digest — at /fleet. In loop mode each rerun
// advances the fleet seed by one.
//
// Fleet runs stream by default (-fleet-stream): every fleet machine's
// scalars, per-core-type counter totals and degradation tallies flow
// into the shared store tagged by machine id and template, downsampled
// into 1s/10s/1m rungs at ingest. /fleet/query serves population
// aggregates (per core type and kind, Welford + quantiles over any
// rung and window, filterable by template or machine prefix),
// /query?rung= serves bucketed single-series views, and /fleet/ui is a
// dependency-free live dashboard. The robust z-score anomaly detector
// (-fleet-anomaly, 0 disables) flags outlier machines per template
// population into the report. The streamer measures its own ingest
// cost and exports it as selfoverhead/* series under machine id
// "fleet"; between loop rounds the time axis advances past the
// previous round's last sample so repeated machine ids stay monotonic.
//
// Every machine also records a cross-layer span trace (scheduler exec
// spans and migrations, perf_event syscalls, fault and degradation
// events) into fixed rings; /trace?machine=M serves the current buffer
// as Chrome trace-event JSON for ui.perfetto.dev, and /metrics exports
// the hetpapid_spans_* recorder counters. -trace-capacity 0 turns the
// recorder off.
//
// The serving path measures itself in the same spirit: every request
// is accounted per endpoint (latency percentiles, status classes,
// bytes, gzip hits, a bounded slow-request ring), /status reports SLO
// attainment against the -slo-latency-ms / -slo-error-pct targets with
// burn flags, /metrics carries the hetpapid_http_* families, and with
// tracing enabled each request lands one http.<endpoint> span served
// at /trace?machine=http. The cmd/hetpapiload harness drives this
// surface under deterministic open-loop load.
//
// With -profile (the default), every machine additionally runs the
// per-core-type statistical profiler: one sampled cycles event per
// core-type PMU per workload task, drained into a period-weighted
// profile with explicit lost-sample error bounds. /profile?machine=M
// serves the last completed run's profile as a gzipped pprof
// profile.proto for `go tool pprof`, /metrics exports the
// hetpapiprof_samples_{emitted,lost}_total counters, and the cumulative
// counters stream into the store as profile/emitted and profile/lost
// series.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight scenario
// runs are stopped at the next tick boundary via the harness's external
// stop, and the HTTP server drains before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/profile"
	"hetpapi/internal/scenario"
	"hetpapi/internal/spantrace"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/httpobs"
	"hetpapi/internal/validate"
)

type config struct {
	addr       string
	scenarios  string
	capacity   int
	shards     int
	every      int
	loop       bool
	reqTimeout time.Duration
	traceCap   int
	sloLatMs   float64
	sloErrPct  float64
	profile    bool
	profPeriod uint64
	validate   bool

	fleetN       int
	fleetSeed    int64
	fleetStagger float64
	fleetChaos   float64
	fleetWorkers int
	fleetStream  bool
	fleetAnomaly float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address")
	flag.StringVar(&cfg.scenarios, "scenarios", "all",
		"comma-separated reference scenario names to collect, or \"all\"")
	flag.IntVar(&cfg.capacity, "capacity", 4096, "per-series ring capacity (stored points)")
	flag.IntVar(&cfg.shards, "shards", 8, "store lock shards")
	flag.IntVar(&cfg.every, "every", 1, "sample every N simulator ticks")
	flag.BoolVar(&cfg.loop, "loop", true, "restart scenarios when they finish")
	flag.DurationVar(&cfg.reqTimeout, "request-timeout", 5*time.Second, "per-request handler and header-read timeout")
	flag.IntVar(&cfg.traceCap, "trace-capacity", spantrace.DefaultTrackCapacity,
		"span-trace ring capacity per track, served at /trace (0 disables tracing)")
	flag.Float64Var(&cfg.sloLatMs, "slo-latency-ms", httpobs.DefaultSLOLatencyMs,
		"per-request latency SLO target in milliseconds (judged by /status)")
	flag.Float64Var(&cfg.sloErrPct, "slo-error-pct", httpobs.DefaultSLOErrorPct,
		"tolerated per-endpoint error rate in percent (judged by /status)")
	flag.BoolVar(&cfg.profile, "profile", true,
		"attach the per-core-type statistical profiler, served at /profile")
	flag.Uint64Var(&cfg.profPeriod, "profile-period", 0,
		"profiler sampling period in cycles (0 = default)")
	flag.BoolVar(&cfg.validate, "validate", true,
		"run the counter-accuracy validation suite at startup and serve the scorecard at /validate")
	flag.IntVar(&cfg.fleetN, "fleet", 0,
		"also run an N-machine fleet (default template mix) and serve its roll-up at /fleet (0 disables)")
	flag.Int64Var(&cfg.fleetSeed, "fleet-seed", 1, "fleet seed (reruns derive follow-up seeds from it in loop mode)")
	flag.Float64Var(&cfg.fleetStagger, "fleet-stagger", 0.5, "fleet cold-start stagger window (simulated seconds)")
	flag.Float64Var(&cfg.fleetChaos, "fleet-chaos", 0.25, "fraction of fleet machines that draw a chaos fault plan")
	flag.IntVar(&cfg.fleetWorkers, "fleet-workers", 0, "fleet worker pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&cfg.fleetStream, "fleet-stream", true,
		"stream fleet machine series into the store (per-core-type counters, power, degradations; /fleet/query + /fleet/ui)")
	flag.Float64Var(&cfg.fleetAnomaly, "fleet-anomaly", 4.0,
		"robust z-score threshold for flagging outlier fleet machines (0 disables detection; needs -fleet-stream)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "hetpapid:", err)
		os.Exit(1)
	}
}

// resolveSpecs maps the -scenarios flag to reference specs.
func resolveSpecs(names string) ([]scenario.Spec, error) {
	all := scenario.Reference()
	if names == "all" {
		return all, nil
	}
	byName := map[string]scenario.Spec{}
	for _, spec := range all {
		byName[spec.Name] = spec
	}
	var out []scenario.Spec
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(knownNames(all), ", "))
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, errors.New("no scenarios selected")
	}
	return out, nil
}

func knownNames(specs []scenario.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// run starts the collectors and the HTTP server and blocks until ctx is
// cancelled (or the listener fails). When ready is non-nil it receives
// the bound listen address once serving, which lets tests use ":0".
func run(ctx context.Context, cfg config, logw io.Writer, ready chan<- string) error {
	if !(cfg.sloLatMs > 0) || math.IsInf(cfg.sloLatMs, 1) {
		return fmt.Errorf("-slo-latency-ms %v: want a finite target > 0", cfg.sloLatMs)
	}
	if !(cfg.sloErrPct >= 0 && cfg.sloErrPct <= 100) {
		return fmt.Errorf("-slo-error-pct %v: want a rate in [0, 100]", cfg.sloErrPct)
	}
	specs, err := resolveSpecs(cfg.scenarios)
	if err != nil {
		return err
	}
	store := telemetry.NewStore(telemetry.Config{
		Capacity: cfg.capacity,
		Shards:   cfg.shards,
	})
	api := telemetry.NewServer(store, cfg.reqTimeout)
	api.SetSLO(cfg.sloLatMs, cfg.sloErrPct)
	if cfg.traceCap > 0 {
		// The serving path gets its own recorder (separate rings from the
		// machine recorders), served at /trace?machine=http.
		httpRec := spantrace.New(spantrace.Config{TrackCapacity: cfg.traceCap})
		httpRec.Enable()
		api.AttachHTTPTracer(httpRec)
	}
	fleetMon := fleet.NewMonitor()
	fleetMon.Register(api)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "hetpapid: listening on %s, collecting %s (loop=%v)\n",
		ln.Addr(), strings.Join(knownNames(specs), ", "), cfg.loop)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	runCtx, cancelRuns := context.WithCancel(ctx)
	defer cancelRuns()
	var wg sync.WaitGroup
	for _, spec := range specs {
		col := telemetry.NewCollector(store, spec.Name, cfg.every)
		api.Register(spec.Name, spec.Name, spec.Machine, col)
		var rec *spantrace.Recorder
		if cfg.traceCap > 0 {
			rec = spantrace.New(spantrace.Config{TrackCapacity: cfg.traceCap})
			rec.Enable()
			api.AttachTracer(spec.Name, rec)
		}
		var pcol *profile.Collector
		if cfg.profile {
			pcol = profile.NewCollector(nil, profile.Config{Period: cfg.profPeriod})
			api.AttachProfiler(spec.Name, pcol)
		}
		wg.Add(1)
		go func(spec scenario.Spec) {
			defer wg.Done()
			collect(runCtx, api, col, rec, pcol, store, spec, cfg, logw)
		}(spec)
	}

	if cfg.fleetN > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			collectFleet(runCtx, fleetMon, store, cfg, logw)
		}()
	}

	if cfg.validate {
		// Startup attestation: run the closed-form oracle suite over
		// every standard model and publish the accuracy scorecard at
		// /validate. Runs off the serving path — the endpoint 404s until
		// the suite (tens of milliseconds) completes.
		wg.Add(1)
		go func() {
			defer wg.Done()
			card, err := validate.BuildScorecard(validate.StandardSources())
			if err != nil {
				fmt.Fprintf(logw, "hetpapid: startup validation failed: %v\n", err)
				return
			}
			api.SetScorecard(card)
			fmt.Fprintf(logw, "hetpapid: validation scorecard: %d rows, %d failed, worst clean rel err %s (digest %s)\n",
				card.Summary.Rows, card.Summary.Failed, card.Summary.MaxCleanRel, card.Digest[:12])
		}()
	}

	// TimeoutHandler only bounds handlers; ReadHeaderTimeout stops a client
	// that never finishes its headers (slowloris) holding a connection.
	httpSrv := &http.Server{Handler: api.Handler(), ReadHeaderTimeout: cfg.reqTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Stop in-flight runs at their next tick boundary, then drain
		// the HTTP server.
		cancelRuns()
		wg.Wait()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-serveErr // always http.ErrServerClosed after Shutdown
		fmt.Fprintln(logw, "hetpapid: shut down cleanly")
		return nil
	case err := <-serveErr:
		cancelRuns()
		wg.Wait()
		return err
	}
}

// collectFleet runs the daemon's fleet in its own goroutine: generate
// an N-machine fleet from the default template mix, run it on the
// bounded pool, and publish the roll-up at /fleet. With -fleet-stream
// every machine also streams its live series into the shared store
// (served by /fleet/query and the /fleet/ui dashboard), the anomaly
// detector flags outlier machines into the report, and the streaming
// pipeline's own ingest cost is exported as selfoverhead/* series. In
// loop mode each rerun advances the seed by one so consecutive reports
// cover fresh — but still fully reproducible — fleets.
func collectFleet(ctx context.Context, mon *fleet.Monitor, store *telemetry.Store, cfg config, logw io.Writer) {
	gen := fleet.GenConfig{
		Machines:   cfg.fleetN,
		StaggerSec: cfg.fleetStagger,
	}
	if cfg.fleetChaos > 0 {
		gen.Chaos = &fleet.ChaosConfig{IncidentRate: cfg.fleetChaos}
	}
	base := 0.0
	for run := 0; ctx.Err() == nil; run++ {
		gen.Seed = cfg.fleetSeed + int64(run)
		f, err := fleet.Generate(gen)
		if err != nil {
			fmt.Fprintf(logw, "hetpapid: fleet: %v\n", err)
			return
		}
		rc := fleet.RunConfig{Workers: cfg.fleetWorkers}
		if cfg.fleetStream {
			rc.Streamer = fleet.NewStreamer(store, 0)
			rc.Streamer.SetBaseSec(base)
			if cfg.fleetAnomaly > 0 {
				rc.Anomaly = &fleet.AnomalyConfig{Threshold: cfg.fleetAnomaly}
			}
		}
		mon.SetRunning(true)
		rep, err := fleet.Run(ctx, f, rc)
		mon.SetRunning(false)
		if err != nil {
			fmt.Fprintf(logw, "hetpapid: fleet: %v\n", err)
			return
		}
		var overhead *fleet.SelfOverhead
		if rc.Streamer != nil {
			o := rc.Streamer.ExportOverhead(float64(run))
			overhead = &o
			base = rc.Streamer.MaxSec() + 1
		}
		mon.SetReport(rep, overhead)
		fmt.Fprintf(logw, "hetpapid: fleet seed=%d: %d machines, %d completed, %d incidents, %d anomalies, digest %s\n",
			rep.Seed, rep.Machines, rep.Completed, len(rep.Incidents), len(rep.Anomalies), rep.Digest[:12])
		if overhead != nil {
			fmt.Fprintf(logw, "hetpapid: fleet streaming self-overhead: %d points in %.1fms (%.0f ns/point)\n",
				overhead.Points, overhead.IngestSec*1e3, overhead.NsPerPoint)
		}
		if !cfg.loop {
			return
		}
	}
}

// collect is one machine's collection goroutine: it runs the scenario
// (repeatedly in loop mode) with the telemetry hook and, when enabled,
// the machine's span recorder and statistical profiler attached, until
// the context stops it. In loop mode each run records into the same
// rings — the rings drop oldest, so /trace always serves the most
// recent window, while the profiler archives each finished run
// (/profile serves the last complete one). The profiler's cumulative
// sample counters also stream into the store as profile/* series at the
// telemetry cadence.
func collect(ctx context.Context, api *telemetry.Server, col *telemetry.Collector,
	rec *spantrace.Recorder, pcol *profile.Collector, store *telemetry.Store,
	spec scenario.Spec, cfg config, logw io.Writer) {
	every := cfg.every
	if every <= 0 {
		every = 1
	}
	var profTicks int
	for {
		run := spec
		run.StepHooks = []scenario.StepHook{col.Hook()}
		if pcol != nil {
			run.StepHooks = append(run.StepHooks, pcol.Hook(),
				func(c *scenario.Context) {
					profTicks++
					if profTicks%every != 0 {
						return
					}
					t := c.Sim.Now()
					store.Append(telemetry.Key{Machine: spec.Name, Series: "profile/emitted"},
						t, float64(pcol.EmittedTotal()))
					store.Append(telemetry.Key{Machine: spec.Name, Series: "profile/lost"},
						t, float64(pcol.LostTotal()))
				})
		}
		run.Stop = func() bool { return ctx.Err() != nil }
		run.Tracer = rec
		api.SetRunning(spec.Name, true)
		res, err := scenario.Run(run)
		api.SetRunning(spec.Name, false)
		if err != nil {
			fmt.Fprintf(logw, "hetpapid: scenario %s: %v\n", spec.Name, err)
		} else if res.Stopped {
			fmt.Fprintf(logw, "hetpapid: scenario %s: stopped after %.1fs simulated\n",
				spec.Name, res.ElapsedSec)
		}
		if ctx.Err() != nil || !cfg.loop || err != nil {
			return
		}
		col.NextRun()
	}
}
