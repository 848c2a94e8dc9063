package fleet

import (
	"fmt"
	"math"
	"sort"

	"hetpapi/internal/faults"
	"hetpapi/internal/hw"
	"hetpapi/internal/scenario"
)

// ChaosConfig turns a fraction of the fleet into fault-injected
// machines. Whether a machine draws a plan, and which plan it draws, is
// decided by its own derived stream — independent of every other
// machine, of the worker count, and of the fleet size around it.
type ChaosConfig struct {
	// IncidentRate is the fraction of machines (0..1] that receive a
	// fault plan.
	IncidentRate float64
	// MaxEvents bounds each machine's plan length (0 = the faults
	// package default of 8). Counter-budget caps take the faults
	// package's floor of 1, so chaos plans degrade multiplexing without
	// making a PMU unschedulable.
	MaxEvents int
}

func (c *ChaosConfig) validate() error {
	if c.IncidentRate < 0 || c.IncidentRate > 1 || math.IsNaN(c.IncidentRate) {
		return fmt.Errorf("fleet: chaos incident rate %v outside [0,1]", c.IncidentRate)
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("fleet: negative chaos MaxEvents %d", c.MaxEvents)
	}
	return nil
}

// profileFor builds the faults.Profile a chaos-selected machine draws
// its plan from. Watchdog and budget faults may target every core-type
// PMU; hotplug faults are restricted to CPUs no workload is pinned to,
// so a plan can never strand a pinned thread on an offline CPU (the
// same restriction the faults fuzz harness applies). The horizon is the
// spec's run bound, so hold-type faults always heal before the run can
// end on MaxSeconds.
func (c *ChaosConfig) profileFor(m *hw.Machine, spec *scenario.Spec) faults.Profile {
	p := faults.Profile{MaxEvents: c.MaxEvents}
	p.HorizonSec = spec.MaxSeconds
	if p.HorizonSec <= 0 {
		p.HorizonSec = 60 // the scenario harness default run bound
	}
	for _, t := range m.Types {
		p.PMUs = append(p.PMUs, t.PMU.PerfType)
	}
	pinned := map[int]bool{}
	allPinned := false
	for _, w := range spec.Workloads {
		if len(w.CPUs) == 0 {
			// Unpinned workload roams the whole machine: no CPU is
			// safe to unplug.
			allPinned = true
		}
		for _, cpu := range w.CPUs {
			pinned[cpu] = true
		}
	}
	for _, inj := range spec.Injects {
		for _, cpu := range inj.CPUs {
			pinned[cpu] = true
		}
	}
	if !allPinned {
		for _, cpu := range m.CPUs {
			if !pinned[cpu.ID] {
				p.CPUs = append(p.CPUs, cpu.ID)
			}
		}
		sort.Ints(p.CPUs)
	}
	return p
}
