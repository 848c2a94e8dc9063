package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hetpapi/internal/core"
	"hetpapi/internal/hw"
	"hetpapi/internal/sim"
	"hetpapi/internal/validate"
	"hetpapi/internal/workload"
)

// The paper's papi_hybrid_100m_one_eventset shape: a loop retiring 1M
// instructions 100 times, free to migrate between P and E cores.
const (
	loopInstrPerRep = 1e6
	loopReps        = 100
)

// hybridEvents is the two-PMU EventSet: one perf group per core PMU, so
// every read costs two group reads (section IV.E).
var hybridEvents = []string{
	"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
	"adl_grt::INST_RETIRED:ANY", "adl_grt::CPU_CLK_UNHALTED:CORE",
}

// muxEvents is the 14-event multiplexed set read on the same cadence.
var muxEvents = []string{
	"adl_glc::INST_RETIRED:ANY", "adl_glc::CPU_CLK_UNHALTED:THREAD",
	"adl_glc::BR_INST_RETIRED:ALL_BRANCHES", "adl_glc::BR_MISP_RETIRED:ALL_BRANCHES",
	"adl_glc::LONGEST_LAT_CACHE:REFERENCE", "adl_glc::LONGEST_LAT_CACHE:MISS",
	"adl_glc::MEM_INST_RETIRED:ALL_LOADS", "adl_glc::MEM_INST_RETIRED:ALL_STORES",
	"adl_glc::CYCLE_ACTIVITY:STALLS_TOTAL", "adl_glc::UOPS_RETIRED:SLOTS",
	"adl_glc::TOPDOWN:SLOTS", "adl_glc::DTLB_LOAD_MISSES:WALK_COMPLETED",
	"adl_glc::RESOURCE_STALLS:ANY", "adl_glc::INST_RETIRED:NOP",
}

// readPhase is the closed read loop: one Raptor Lake machine and one
// instruction loop per region, with an EventSet read after every
// sim.Step and a Start/Stop caliper around the region. Regions alternate
// between the two-PMU set and the multiplexed set: PAPI runs one
// EventSet per component at a time, and the 14 multiplexed events would
// take the P-core counters from the two-PMU set if both ran at once.
type readPhase struct {
	s   *sim.Machine
	es  *core.EventSet
	mux *core.EventSet

	reads   int // two-PMU reads attempted
	failed  int // reads that errored or decreased, regions that failed the oracle
	regions int
	simSec  float64
	loopDur time.Duration // wall time inside regions
	allocB  uint64
	mallocs uint64
	steps   int64

	read    *nsHist // two-PMU EventSet.Read latency
	muxRead *nsHist // multiplexed EventSet.Read latency

	// Traced regions only.
	tracedDur  time.Duration
	tracedRead time.Duration
	startStop  *nsHist
	step       *nsHist
	syscalls   int64
	tracedRds  int64
	readAllocs float64
	muxAllocs  float64
	untracedNs []float64 // wall per two-PMU region, for trace_overhead
	tracedNs   []float64
}

// newReadPhase builds the rig. The scheduler is configured, through
// public sim.Config fields, as the paper reproduction in
// internal/exp/hybrid.go does: a 50 µs tick with sub-millisecond
// balancing, so one thread visits both core types.
func newReadPhase(seed int64) (*readPhase, error) {
	cfg := sim.DefaultConfig()
	cfg.TickSec = 0.00005
	cfg.Sched.MigrateToEffProb = 0.13
	cfg.Sched.MigrateToPerfProb = 0.37
	cfg.Sched.BalancePeriodSec = 0.00025
	cfg.Sched.Seed = seed
	s := sim.New(hw.RaptorLake(), cfg)
	lib, err := core.Init(s, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("papi init: %w", err)
	}
	rp := &readPhase{
		s: s, es: lib.CreateEventSet(), mux: lib.CreateEventSet(),
		read: newNsHist(), muxRead: newNsHist(), startStop: newNsHist(), step: newNsHist(),
	}
	if err := rp.mux.SetMultiplex(); err != nil {
		return nil, err
	}
	for _, set := range []struct {
		es    *core.EventSet
		names []string
	}{{rp.es, hybridEvents}, {rp.mux, muxEvents}} {
		for _, n := range set.names {
			if err := set.es.AddNamed(n); err != nil {
				return nil, fmt.Errorf("add %s: %w", n, err)
			}
		}
	}
	return rp, nil
}

// region measures one run of the instruction loop on the two-PMU set,
// or on the multiplexed set when mux is set. Reads are always timed;
// traced regions also time sim.Step, Start and Stop, and count syscalls.
func (rp *readPhase) region(mux, traced bool) error {
	es, hist := rp.es, rp.read
	if mux {
		es, hist = rp.mux, rp.muxRead
	}
	loop := workload.NewInstructionLoop("papi_hybrid", loopInstrPerRep, loopReps)
	p := rp.s.Spawn(loop, hw.AllCPUs(rp.s.HW))
	if err := es.Attach(p.PID); err != nil {
		return err
	}
	k := rp.s.Kernel
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	simStart := rp.s.Now()
	start := time.Now()

	if err := es.Start(); err != nil {
		return fmt.Errorf("start: %w", err)
	}
	startNs := time.Since(start)
	var prev []uint64
	var readDur time.Duration
	for !loop.Done() {
		if traced {
			t := time.Now()
			rp.s.Step()
			rp.step.add(int64(time.Since(t)))
		} else {
			rp.s.Step()
		}
		rp.steps++
		sc := k.Syscalls()
		t := time.Now()
		vals, err := es.Read()
		d := time.Since(t)
		hist.add(int64(d))
		if mux {
			if err != nil {
				rp.failed++
			}
			continue
		}
		rp.reads++
		if traced {
			readDur += d
			rp.syscalls += int64(k.Syscalls() - sc)
			rp.tracedRds++
		}
		if err != nil || !nonDecreasing(prev, vals) {
			rp.failed++
		}
		prev = append(prev[:0], vals...)
	}
	// The loop above has already checked these sets' reads; this batch
	// only counts what a read allocates.
	if traced && rp.readAllocs == 0 && !mux {
		rp.readAllocs = allocsPerCall(func() { _, _ = rp.es.Read() })
	}
	if traced && rp.muxAllocs == 0 && mux {
		rp.muxAllocs = allocsPerCall(func() { _, _ = rp.mux.Read() })
	}
	t0 := time.Now()
	vals, err := es.Stop()
	stopNs := time.Since(t0)
	if err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	if err := es.Cleanup(); err != nil {
		return fmt.Errorf("cleanup: %w", err)
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)

	rp.simSec += rp.s.Now() - simStart
	rp.loopDur += dur
	rp.allocB += m1.TotalAlloc - m0.TotalAlloc
	rp.mallocs += m1.Mallocs - m0.Mallocs
	if mux {
		return nil
	}
	// The oracle: P-core plus E-core INST_RETIRED is exactly the loop's
	// instruction count, within the validation suite's clean tolerance.
	want := loopInstrPerRep * loopReps
	if got := float64(vals[0] + vals[2]); math.Abs(got-want) > validate.Tolerance(validate.EvInstructions)*want {
		rp.failed++
	}
	rp.regions++
	if traced {
		rp.tracedDur += dur
		rp.tracedRead += readDur
		rp.startStop.add(int64(startNs + stopNs))
		rp.tracedNs = append(rp.tracedNs, float64(dur))
	} else {
		rp.untracedNs = append(rp.untracedNs, float64(dur))
	}
	return nil
}

// nonDecreasing reports whether no value of cur is below its value in
// prev (an empty prev is the first read of a region).
func nonDecreasing(prev, cur []uint64) bool {
	if len(prev) == 0 {
		return len(cur) == len(hybridEvents)
	}
	if len(cur) != len(prev) {
		return false
	}
	for i, v := range cur {
		if v < prev[i] {
			return false
		}
	}
	return true
}

// allocsPerCall counts the heap allocations of one call, averaged over a
// batch so the MemStats snapshots cost nothing per call.
func allocsPerCall(f func()) float64 {
	const n = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// layers reports the per-layer figures of the traced regions.
func (rp *readPhase) layers(m metrics) {
	if rp.tracedRds == 0 {
		return
	}
	m.set("core.read.ns_p50", rp.read.percentile(50))
	m.set("core.mux_read.ns_p50", rp.muxRead.percentile(50))
	m.set("core.start_stop.ns_p50", rp.startStop.percentile(50))
	m.set("core.read.allocs", rp.readAllocs)
	m.set("core.mux_read.allocs", rp.muxAllocs)
	m.set("core.read.share", float64(rp.tracedRead)/float64(rp.tracedDur))
	m.set("perfevent.syscalls_per_read", float64(rp.syscalls)/float64(rp.tracedRds))
	m.set("sim.step.ns_p50", rp.step.percentile(50))
}
