package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/stats"
)

// Every workload measures all three paths the end-to-end metrics cover
// (fleet simulation, the PAPI read loop, serving), so every metric
// exists on every workload. Each workload gives most of its time to the
// path it was chosen for and a small share to the other two.

// Fleet sizes. The chaos fleet is large enough that the fleet a seed
// draws (which machines get chaos plans, their start offsets) moves the
// throughput little, and small enough that a run holds a dozen rounds
// or more to take the median over. The ingest fleet is hetpapiload's rig
// size; it also sets how much the served store holds.
const (
	chaosMachines  = 128
	ingestMachines = 12
)

type workloadFunc func(ctx context.Context, o options) (outcome, error)

var workloads = map[string]workloadFunc{
	"fleet-chaos":         fleetChaos,
	"papi-read-loop":      papiReadLoop,
	"serve-during-ingest": serveDuringIngest,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fleetChaos: the headline fleet with the audit on, on one worker.
func fleetChaos(ctx context.Context, o options) (outcome, error) {
	return measure(ctx, o, shares{fleet: 0.6, read: 0.15, serve: 0.25})
}

// papiReadLoop: the paper's hybrid EventSet read loop.
func papiReadLoop(ctx context.Context, o options) (outcome, error) {
	return measure(ctx, o, shares{fleet: 0.15, read: 0.6, serve: 0.25})
}

// serveDuringIngest: the daemon shape, a streamed fleet ingesting into
// the store the server reads while open-loop load arrives. Each cycle
// also runs one ingest round with no load, for alloc_bytes_per_sim_s.
func serveDuringIngest(ctx context.Context, o options) (outcome, error) {
	return measure(ctx, o, shares{ingest: 0.8, read: 0.2})
}

// shares splits each cycle between the phases. ingest, used alone,
// serves the load while the ingest fleet runs; otherwise the chaos fleet
// runs and the load is served with no ingest.
type shares struct{ fleet, read, serve, ingest float64 }

func chaosConfig(seed int64) fleet.GenConfig {
	return fleet.GenConfig{
		Machines: chaosMachines, Seed: seed, StaggerSec: 0.5,
		Chaos: &fleet.ChaosConfig{IncidentRate: 0.25},
	}
}

// ingestFleet builds the hetpapiload rig's streamed fleet, runs its
// first round and backfills the store with a history of that round.
// Every workload serves this store.
func ingestFleet(ctx context.Context, seed int64) (*fleetPhase, error) {
	fp, err := newFleetPhase(fleet.GenConfig{Machines: ingestMachines, Seed: seed, StaggerSec: 0.2}, true)
	if err != nil {
		return nil, err
	}
	if _, err := fp.round(ctx, false); err != nil {
		return nil, err
	}
	fp.backfill()
	return fp, nil
}

// rigs is everything a workload builds before it measures.
type rigs struct {
	chaos  *fleetPhase // nil on serve-during-ingest
	ingest *fleetPhase
	rp     *readPhase
	srv    *serveRig
}

func buildRigs(ctx context.Context, seed int64, chaos bool) (rigs, error) {
	var r rigs
	var err error
	if chaos {
		if r.chaos, err = newFleetPhase(chaosConfig(seed), false); err != nil {
			return r, err
		}
	}
	if r.ingest, err = ingestFleet(ctx, seed); err != nil {
		return r, err
	}
	if r.rp, err = newReadPhase(seed); err != nil {
		return r, err
	}
	r.srv, err = startServe(r.ingest.store)
	return r, err
}

// measure builds the rigs, runs the workload's phases in cycles on them
// and folds the result. Every cycle also times one spare build of the
// same rigs and throws it away. setup_s is the median over all builds,
// so like every other metric it samples the host across the whole run,
// not only the half second before the first cycle.
func measure(ctx context.Context, o options, sh shares) (outcome, error) {
	var setup []float64
	build := func() (rigs, error) {
		start := time.Now()
		r, err := buildRigs(ctx, o.seed, sh.ingest == 0)
		if err != nil {
			if r.srv != nil {
				r.srv.close()
			}
			return r, err
		}
		setup = append(setup, time.Since(start).Seconds())
		return r, nil
	}
	r, err := build()
	if err != nil {
		return outcome{}, err
	}
	defer r.srv.close()

	fp := r.chaos
	if sh.ingest > 0 {
		fp = r.ingest
	}
	fr := &fleetRunner{fp: fp, traced: o.trace}
	rr := &readRunner{rp: r.rp, traced: o.trace}
	jobs := schedule(o.seed, serveRate, requestsIn(time.Duration(o.seconds)*time.Second), machineIDs(r.ingest.f))
	gen := newLoadGen(r.srv, jobs)

	slices := []slice{
		{sh.fleet, func(until time.Time) error { return fr.run(ctx, until, nil) }},
		{sh.read, rr.run},
		{sh.serve, func(until time.Time) error { gen.send(ctx, until); return nil }},
	}
	if sh.ingest > 0 {
		slices = []slice{
			{sh.ingest, func(until time.Time) error { return loadDuringIngest(ctx, fr, gen, until) }},
			{0, func(time.Time) error { return fr.alone(ctx) }},
			{sh.read, rr.run},
		}
	}
	slices = append(slices, slice{0, func(time.Time) error {
		spare, err := build()
		if err == nil {
			spare.srv.close()
		}
		return err
	}})
	if err := cycles(o.seconds, slices); err != nil {
		return outcome{}, err
	}
	lr, err := gen.finish(ctx)
	if err != nil {
		return outcome{}, err
	}
	m := metrics{"setup_s": stats.Median(setup)}
	report(m, &fr.t, fp, r.rp, lr, sh.read > sh.fleet+sh.ingest)
	return tally(m, &fr.t, fp, r.rp, lr), nil
}

// slice is one phase's turn within a cycle.
type slice struct {
	share float64
	run   func(until time.Time) error
}

// cycleSec is the target length of one cycle. Host speed on a shared
// machine wanders on a scale of a second or two, so every phase takes a
// turn in every cycle and samples the whole run, not one stretch of it.
const cycleSec = 3.0

// cycles runs the slices in turn, each for its share of a cycle, until
// the run's seconds are spent. A phase always completes the round or
// region it started, so a slice may overrun its share a little. Each
// turn starts on a collected heap, so one phase's garbage is not
// collected on the next phase's time.
func cycles(seconds int, slices []slice) error {
	n := int(math.Max(1, math.Round(float64(seconds)/cycleSec)))
	cycle := float64(seconds) / float64(n) * float64(time.Second)
	for c := 0; c < n; c++ {
		for _, sl := range slices {
			runtime.GC()
			if err := sl.run(time.Now().Add(time.Duration(sl.share * cycle))); err != nil {
				return err
			}
		}
	}
	return nil
}

// fleetRunner runs a fleet phase's rounds slice by slice. A traced run
// alternates untraced and traced rounds, so trace_overhead compares
// rounds taken under the same conditions. The first round warms caches
// and counts only towards the output checks.
type fleetRunner struct {
	fp     *fleetPhase
	traced bool
	rounds int
	t      fleetTotals
}

// run runs rounds until the deadline passes or stop reports true, and
// always at least one.
func (fr *fleetRunner) run(ctx context.Context, until time.Time, stop func() bool) error {
	for {
		tr := fr.traced && fr.rounds%2 == 0 && fr.rounds > 0
		r, err := fr.fp.round(ctx, tr)
		if err != nil {
			return err
		}
		if fr.rounds > 0 {
			fr.t.add(r, tr)
		} else {
			fr.t.machines += r.machines
			fr.t.failed += r.failed
		}
		fr.rounds++
		if time.Now().After(until) || (stop != nil && stop()) {
			return nil
		}
	}
}

// readRunner runs pairs of read-loop regions, one on each EventSet,
// slice by slice. A traced run alternates untraced and traced pairs.
type readRunner struct {
	rp     *readPhase
	traced bool
	pairs  int
}

func (rr *readRunner) run(until time.Time) error {
	for {
		tr := rr.traced && rr.pairs%2 == 1
		for _, mux := range []bool{false, true} {
			if err := rr.rp.region(mux, tr); err != nil {
				return err
			}
		}
		rr.pairs++
		if time.Now().After(until) {
			return nil
		}
	}
}

// alone runs one untraced round with nothing beside it. The runtime
// counts heap allocations per process, not per goroutine, so only such
// a round gives the fleet's own bytes when serving shares the process.
func (fr *fleetRunner) alone(ctx context.Context) error {
	r, err := fr.fp.round(ctx, false)
	if err != nil {
		return err
	}
	fr.t.machines += r.machines
	fr.t.failed += r.failed
	if r.simSec > 0 {
		fr.t.aloneAlloc = append(fr.t.aloneAlloc, float64(r.allocB)/r.simSec)
	}
	return nil
}

// loadDuringIngest runs fleet rounds on their own goroutine while the
// load generator sends until the deadline, then stops ingest after the
// round in flight.
func loadDuringIngest(ctx context.Context, fr *fleetRunner, gen *loadGen, until time.Time) error {
	stop := make(chan struct{})
	ingested := make(chan error, 1)
	go func() {
		ingested <- fr.run(ctx, until.Add(time.Hour), func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		})
	}()
	gen.send(ctx, until)
	close(stop)
	return <-ingested
}

func requestsIn(d time.Duration) int { return int(serveRate * d.Seconds()) }

func machineIDs(f *fleet.Fleet) []string {
	var ids []string
	for _, m := range f.Machines {
		ids = append(ids, m.ID)
	}
	return ids
}

// report folds the three paths into the metrics. The main phase decides
// sim_throughput, alloc_bytes_per_sim_s and the per-tick runtime figure;
// where the fleet ran rounds alone beside its main phase, those rounds
// give alloc_bytes_per_sim_s.
func report(m metrics, ft *fleetTotals, fp *fleetPhase, rp *readPhase, lr loadResult, readMain bool) {
	if readMain {
		m.set("sim_throughput", rp.simSec/rp.loopDur.Seconds())
		m.set("alloc_bytes_per_sim_s", float64(rp.allocB)/rp.simSec)
	} else {
		m.set("sim_throughput", stats.Median(ft.throughputs))
		alloc := ft.allocPerSimS
		if len(ft.aloneAlloc) > 0 {
			alloc = ft.aloneAlloc
		}
		m.set("alloc_bytes_per_sim_s", stats.Median(alloc))
	}
	m.set("read_mean_ns", rp.read.mean())
	m.set("read_p99_ns", rp.read.percentile(tailPct))
	m.set("alloc_bytes_per_read", float64(rp.allocB)/float64(rp.reads))
	m.set("serve_p50_ms", stats.Median(lr.allMs))
	m.set("serve_p99_ms", stats.Percentile(lr.allMs, tailPct))

	ft.layers(m, fp.generateMs)
	rp.layers(m)
	for i, e := range endpoints {
		m.set("http."+e.name+".p50_ms", stats.Median(lr.latMs[i]))
		m.set("http."+e.name+".tail_ms", stats.Percentile(lr.latMs[i], tailPercentile(len(lr.latMs[i]))))
		m.set("http."+e.name+".server_p50_ms", lr.serverP50[i])
	}
	m.set("http.allocs_per_request", float64(lr.mallocs)/float64(lr.requests))
	m.set("http.bytes_per_request", float64(lr.bytesOut)/float64(lr.requests))
	m.set("loadgen.lag_p99_ms", stats.Percentile(lr.lagMs, tailPct))
	m.set("loadgen.max_backlog", float64(lr.maxBacklog))
	if readMain {
		m.set("runtime.allocs_per_tick", float64(rp.mallocs)/float64(rp.steps))
		m.set("trace_overhead", stats.Median(rp.tracedNs)/stats.Median(rp.untracedNs))
	} else {
		m.set("trace_overhead", stats.Median(ft.tracedWalls)/stats.Median(ft.untracedWalls))
	}
}

// tally builds the outcome's counts and the human-readable detail line.
func tally(m metrics, ft *fleetTotals, fp *fleetPhase, rp *readPhase, lr loadResult) outcome {
	tails := map[string]float64{}
	for i, e := range endpoints {
		tails[e.name] = tailPercentile(len(lr.latMs[i]))
	}
	return outcome{
		m:         m,
		attempted: ft.machines + rp.reads + rp.regions + lr.requests,
		failed:    ft.failed + rp.failed + lr.failed,
		detail: map[string]any{
			"fleet_digest":   fp.digest,
			"fleet_rounds":   len(ft.traced) + len(ft.untracedWalls),
			"fleet_machines": ft.machines,
			"fleet_failed":   ft.failed,
			"read_regions":   rp.regions,
			"reads":          rp.reads,
			"read_failed":    rp.failed,
			"requests":       lr.requests,
			"request_failed": lr.failed,
			"tail_pct":       tailPct,
			"tail_valid":     rp.reads >= minTailSamples && lr.requests >= minTailSamples,
			"http_tail_pct":  tails,
		},
	}
}

// measureCapacity sends requests closed loop, one per worker at a time,
// while the ingest fleet streams into the store, and prints the
// completed rate. serveRate is about a third of it.
func measureCapacity(ctx context.Context, o options, stdout io.Writer) error {
	r, err := buildRigs(ctx, o.seed, false)
	if r.srv != nil {
		defer r.srv.close()
	}
	if err != nil {
		return err
	}
	// A schedule due all at once is a closed loop of loadWorkers clients.
	dur := time.Duration(o.seconds) * time.Second
	gen := newLoadGen(r.srv, schedule(o.seed, 1e9, 3*requestsIn(dur), machineIDs(r.ingest.f)))
	start := time.Now()
	if err := loadDuringIngest(ctx, &fleetRunner{fp: r.ingest}, gen, start.Add(time.Millisecond)); err != nil {
		return err
	}
	elapsed := time.Since(start)
	lr, err := gen.finish(ctx)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "capacity %.0f req/s over %d requests (%d failed) during ingest; serveRate %d\n",
		float64(lr.requests)/elapsed.Seconds(), lr.requests, lr.failed, serveRate)
	return err
}
