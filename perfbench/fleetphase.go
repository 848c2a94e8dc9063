package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"hetpapi/internal/fleet"
	"hetpapi/internal/scenario"
	"hetpapi/internal/telemetry"
)

// fleetPhase runs one generated fleet again and again on a single
// worker, streaming every round into a telemetry store. The same fleet
// runs every round, so every round must produce the same digest.
type fleetPhase struct {
	f *fleet.Fleet
	// persist keeps one store across rounds and moves the streamer's
	// time base past the previous round, as the daemon's loop does;
	// otherwise every round streams into a fresh store.
	persist  bool
	store    *telemetry.Store // the persistent store
	streamer *fleet.Streamer
	nextBase float64 // the persistent store's time base for the next round
	digest   string

	generateMs float64
}

// fleetRound is one round's outcome. The layer fields are filled only on
// traced rounds.
type fleetRound struct {
	wall     time.Duration
	simSec   float64
	allocB   uint64
	mallocs  uint64
	machines int
	failed   int
	digest   string

	ticks      int64
	tickWallNs int64
	syscalls   int64
	invNs      []int64 // per Standard() invariant, in Standard() order
	streamNs   int64
	points     int64
	anomalyNs  int64
}

// storeConfig is the store a chaos round streams into: hetpapiload's.
func storeConfig() telemetry.Config { return telemetry.Config{Capacity: 4096, Shards: 8} }

// servedConfig is the persistent store the server reads. It is sized so
// that replaying historySec of samples fills every series' raw ring and
// 10 s rung within set-up; see backfill.
func servedConfig() telemetry.Config {
	return telemetry.Config{Capacity: 1024, RungCapacity: 128, Shards: 8}
}

// historySec is the simulated history backfill replays: 128 buckets of
// the 10 s rung, and more 1 Hz samples than the raw ring holds.
const historySec = 1280

// newFleetPhase generates the fleet. The generation time is the phase's
// set-up cost and is reported as fleet.generate.ms.
func newFleetPhase(cfg fleet.GenConfig, persist bool) (*fleetPhase, error) {
	start := time.Now()
	f, err := fleet.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate fleet: %w", err)
	}
	fp := &fleetPhase{f: f, persist: persist}
	fp.generateMs = float64(time.Since(start).Nanoseconds()) / 1e6
	if persist {
		fp.store = telemetry.NewStore(servedConfig())
		fp.streamer = fleet.NewStreamer(fp.store, 0)
	}
	return fp, nil
}

// invariantNames lists the Standard() invariants in order.
func invariantNames() []string {
	var names []string
	for _, inv := range scenario.Standard() {
		names = append(names, inv.Name())
	}
	return names
}

// timedInvariant times one invariant's Check and Final calls. The fleet
// phase runs on one worker, so the shared accumulator needs no lock.
type timedInvariant struct {
	scenario.Invariant
	ns *int64
}

func (t timedInvariant) Check(c *scenario.Context) error {
	start := time.Now()
	err := t.Invariant.Check(c)
	*t.ns += int64(time.Since(start))
	return err
}

func (t timedInvariant) Final(c *scenario.Context) error {
	start := time.Now()
	err := t.Invariant.Final(c)
	*t.ns += int64(time.Since(start))
	return err
}

// backfill replays the persistent store's contents forward in time
// until it holds historySec of history, then moves the next round's time
// base past it. Serving then meets the full rings of a daemon that has
// run for a while, and queries cost the same at the end of a run as at
// its start, instead of growing as ingest fills the store.
func (fp *fleetPhase) backfill() {
	keys := fp.store.Keys()
	pts := make([][]telemetry.Point, len(keys))
	for i, k := range keys {
		pts[i], _ = fp.store.Snapshot(k)
	}
	span := fp.nextBase
	for shift := span; shift < historySec; shift += span {
		for i, k := range keys {
			for _, p := range pts[i] {
				fp.store.Append(k, p.TimeSec+shift, p.Value)
			}
		}
		fp.nextBase = shift + span
	}
}

// timerFloorNs is what timing an empty call reads: the part of every
// timed interval that is the clock itself.
func timerFloorNs() float64 {
	const n = 1 << 16
	var sum int64
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += int64(time.Since(t))
	}
	return float64(sum) / n
}

// instrument gives every machine a fresh timed Standard() set and a
// timing step hook that counts ticks, measures hook-to-hook wall time
// and follows the kernel's syscall counter. Passing nil removes both,
// which restores the fleet's own audit (a nil Invariants list runs a
// fresh Standard() set).
func (fp *fleetPhase) instrument(r *fleetRound) {
	for i := range fp.f.Machines {
		spec := &fp.f.Machines[i].Spec
		if r == nil {
			spec.Invariants, spec.StepHooks = nil, nil
			continue
		}
		var invs []scenario.Invariant
		for k, inv := range scenario.Standard() {
			invs = append(invs, timedInvariant{Invariant: inv, ns: &r.invNs[k]})
		}
		spec.Invariants = invs
		var last time.Time
		var lastSyscalls int64
		spec.StepHooks = []scenario.StepHook{func(c *scenario.Context) {
			now := time.Now()
			if !last.IsZero() {
				r.tickWallNs += int64(now.Sub(last))
			}
			last = now
			r.ticks++
			sc := int64(c.Sim.Kernel.Syscalls())
			r.syscalls += sc - lastSyscalls
			lastSyscalls = sc
		}}
	}
}

// round runs the fleet once, then the anomaly detector over the
// streamed store, as the daemon does after every fleet round. A round
// whose digest differs from the phase's first round counts every
// machine in it as failed: the benchmark's own wrappers must not change
// what they observe.
func (fp *fleetPhase) round(ctx context.Context, traced bool) (fleetRound, error) {
	var r fleetRound
	if traced {
		r.invNs = make([]int64, len(invariantNames()))
		fp.instrument(&r)
	} else {
		fp.instrument(nil)
	}
	// A fresh store is dropped after the round, so it does not stay on
	// the heap for the other phases to collect around.
	store, streamer := fp.store, fp.streamer
	if !fp.persist {
		store = telemetry.NewStore(storeConfig())
		streamer = fleet.NewStreamer(store, 0)
	} else {
		streamer.SetBaseSec(fp.nextBase)
	}
	so0 := streamer.SelfOverhead()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := fleet.Run(ctx, fp.f, fleet.RunConfig{Workers: 1, Streamer: streamer})
	if err != nil {
		return r, fmt.Errorf("fleet run: %w", err)
	}
	a0 := time.Now()
	fleet.DetectAnomalies(store, fp.f, fleet.AnomalyConfig{})
	r.anomalyNs = int64(time.Since(a0))
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	fp.instrument(nil)

	r.simSec = rep.MachineSimSec
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.machines = len(rep.Results)
	for _, mr := range rep.Results {
		if mr.Panicked || mr.Error != "" || len(mr.Violations) > 0 {
			r.failed++
		}
	}
	r.digest = rep.Digest
	if fp.digest == "" {
		fp.digest = r.digest
	} else if r.digest != fp.digest {
		r.failed = r.machines
	}

	if fp.persist {
		fp.nextBase = math.Ceil(streamer.MaxSec()) + 1
	}
	so1 := streamer.SelfOverhead()
	r.points = so1.Points - so0.Points
	r.streamNs = int64((so1.IngestSec - so0.IngestSec) * 1e9)
	return r, nil
}

// fleetTotals folds rounds into the phase's figures.
type fleetTotals struct {
	throughputs   []float64 // machine-sim-s per wall-s, per round
	allocPerSimS  []float64 // heap bytes per machine-sim-s, per round
	aloneAlloc    []float64 // the same, per round run with no load beside it
	machines      int
	failed        int
	traced        []fleetRound
	untracedWalls []float64
	tracedWalls   []float64
}

func (t *fleetTotals) add(r fleetRound, traced bool) {
	t.machines += r.machines
	t.failed += r.failed
	wall := r.wall.Seconds()
	if traced {
		t.traced = append(t.traced, r)
		t.tracedWalls = append(t.tracedWalls, wall)
		return
	}
	t.untracedWalls = append(t.untracedWalls, wall)
	if wall > 0 && r.simSec > 0 {
		t.throughputs = append(t.throughputs, r.simSec/wall)
		t.allocPerSimS = append(t.allocPerSimS, float64(r.allocB)/r.simSec)
	}
}

// layers reports the per-layer figures of the traced rounds.
func (t *fleetTotals) layers(m metrics, generateMs float64) {
	var wall, tickWall, ticks, machines, syscalls, stream, points, anomaly int64
	var mallocs uint64
	inv := make([]int64, len(invariantNames()))
	for _, r := range t.traced {
		wall += int64(r.wall)
		tickWall += r.tickWallNs
		ticks += r.ticks
		machines += int64(r.machines)
		syscalls += r.syscalls
		stream += r.streamNs
		points += r.points
		anomaly += r.anomalyNs
		mallocs += r.mallocs
		for k, ns := range r.invNs {
			inv[k] += ns
		}
	}
	if ticks == 0 {
		return
	}
	// Each invariant ran Check once per tick and Final once per machine.
	// Its total is reported net of what the clock reads inside each timed
	// interval cost; that time belongs to the tracing, not to any layer.
	floor := int64(timerFloorNs() * float64(ticks+machines))
	var audit, clock int64
	for k := range inv {
		net := max(inv[k]-floor, 0)
		clock += inv[k] - net
		inv[k] = net
		audit += net
	}
	// Shares are of the traced rounds' wall time, clock reads excluded.
	rounds := float64(len(t.traced))
	share := func(ns int64) float64 { return float64(ns) / float64(wall-clock) }
	perTick := func(ns int64) float64 { return float64(ns) / float64(ticks) }
	m.set("scenario.audit.ns_per_tick", perTick(audit))
	m.set("scenario.audit.share", share(audit))
	tick := tickWall - clock
	m.set("scenario.audit.ratio", float64(tick)/float64(tick-audit))
	for k, name := range invariantNames() {
		m.set("scenario.invariant."+name+".ns_per_tick", perTick(inv[k]))
	}
	m.set("perfevent.syscalls_per_tick", float64(syscalls)/float64(ticks))
	simNs := tick - audit - stream
	m.set("sim.ns_per_tick", perTick(simNs))
	m.set("sim.share", share(simNs))
	m.set("sim.ticks", float64(ticks)/rounds)
	if points > 0 {
		m.set("fleet.streamer.ns_per_point", float64(stream)/float64(points))
	}
	m.set("fleet.streamer.share", share(stream))
	m.set("fleet.streamer.points", float64(points)/rounds)
	m.set("fleet.generate.ms", generateMs)
	m.set("fleet.anomaly.ms", float64(anomaly)/1e6/rounds)
	m.set("runtime.allocs_per_tick", float64(mallocs)/float64(ticks))
}
