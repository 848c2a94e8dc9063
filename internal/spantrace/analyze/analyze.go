// Package analyze consumes exported span traces (the Chrome
// trace-event / Perfetto JSON that internal/spantrace writes) and
// computes the timeline answers the paper's debugging stories need:
// where the time went per core type, when tasks migrated between PMU
// domains, what the syscall traffic cost, and which task's timeline was
// the critical path of the run. It parses the JSON wire format rather
// than recorder snapshots so it works identically on live recorders,
// files written by cmd/hetpapitrace, and the hetpapid /trace endpoint.
package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"hetpapi/internal/spantrace"
	"hetpapi/internal/stats"
)

// Trace is a parsed trace document.
type Trace struct {
	// Events are the non-metadata trace events in file order (the
	// exporter writes them time-sorted).
	Events []spantrace.JSONEvent
	// TrackName maps tids to their thread_name metadata.
	TrackName map[int]string
	// Other is the exporter's otherData envelope (nil when absent).
	Other *spantrace.JSONOtherData
}

// Parse reads an exported trace document.
func Parse(r io.Reader) (*Trace, error) {
	var doc spantrace.JSONTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("analyze: parsing trace: %w", err)
	}
	t := &Trace{TrackName: map[int]string{}, Other: doc.OtherData}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				if name, ok := ev.Args["name"].(string); ok {
					t.TrackName[ev.TID] = name
				}
			}
			continue
		}
		t.Events = append(t.Events, ev)
	}
	return t, nil
}

// fnum reads a numeric arg (JSON numbers decode as float64).
func fnum(args map[string]any, key string) (float64, bool) {
	v, ok := args[key].(float64)
	return v, ok
}

// fstr reads a string arg.
func fstr(args map[string]any, key string) string {
	s, _ := args[key].(string)
	return s
}

// CoreTypeTime is the busy-time attribution of one core type.
type CoreTypeTime struct {
	// BusySec is the total exec-span time on cores of this type.
	BusySec float64
	// Spans is the number of exec spans attributed.
	Spans int
	// Share is BusySec over the total busy time of all types.
	Share float64
}

// Migration is one cross-CPU move parsed from the sched track.
type Migration struct {
	AtSec    float64
	PID      int
	From, To int
	FromType string
	ToType   string
	Task     string
}

// CrossType reports whether the migration crossed core types — the
// moves that change which PMU counts the task.
func (m Migration) CrossType() bool { return m.FromType != m.ToType }

// SyscallStats is the latency profile of one syscall op.
type SyscallStats struct {
	Op    string
	Count int
	// Errors counts non-"ok" results per errno name.
	Errors map[string]int
	// Wall-clock service time stats in nanoseconds.
	MinNs, MaxNs, MeanNs, P50Ns, P95Ns float64
	// Buckets is the log2 latency histogram: Buckets[i] counts calls
	// with wall_ns in [2^i, 2^(i+1)).
	Buckets map[int]int
}

// CriticalPath is the timeline of the last-finishing task: the longest
// chain of work the run could not have completed without.
type CriticalPath struct {
	PID        int
	Task       string
	StartSec   float64
	EndSec     float64
	BusySec    float64
	WaitSec    float64 // gaps between exec spans: runnable-but-waiting
	Segments   int     // exec spans on the path
	Migrations int     // migrations of the path's pid
	ByCoreType map[string]float64
}

// Report is the analyzer's output.
type Report struct {
	// DurationSec spans the earliest to the latest event timestamp.
	DurationSec float64
	Events      int
	Spans       int
	Instants    int
	// ByCoreType attributes exec time to core types.
	ByCoreType map[string]*CoreTypeTime
	// Migrations is the migration timeline, in time order.
	Migrations []Migration
	// CrossTypeMigrations counts migrations between different core
	// types (P<->E), the PMU-switching moves.
	CrossTypeMigrations int
	// Syscalls profiles the kernel-entry traffic per op.
	Syscalls map[string]*SyscallStats
	// Degradations counts degradation-ladder instants per kind.
	Degradations map[string]int
	// Faults counts fault transitions per name.
	Faults map[string]int
	// Critical is the critical-path timeline (nil without exec spans).
	Critical *CriticalPath
	// Overhead echoes the recorder's self-overhead report when the
	// trace carried one.
	Overhead *spantrace.OverheadReport
}

// Analyze computes the report for a parsed trace.
func Analyze(t *Trace) *Report {
	rep := &Report{
		ByCoreType:   map[string]*CoreTypeTime{},
		Syscalls:     map[string]*SyscallStats{},
		Degradations: map[string]int{},
		Faults:       map[string]int{},
	}
	if t.Other != nil {
		o := t.Other.Overhead
		rep.Overhead = &o
	}
	var tsMin, tsMax float64
	first := true
	latency := map[string][]float64{}
	byPid := map[int][]execSpan{}
	pidTask := map[int]string{}
	pidMigrations := map[int]int{}

	for i := range t.Events {
		ev := &t.Events[i]
		rep.Events++
		end := ev.Ts + ev.Dur
		if first || ev.Ts < tsMin {
			tsMin = ev.Ts
		}
		if first || end > tsMax {
			tsMax = end
		}
		first = false
		switch ev.Ph {
		case "X":
			rep.Spans++
		default:
			rep.Instants++
		}
		switch ev.Cat {
		case "exec":
			ct := fstr(ev.Args, "core_type")
			if ct == "" {
				ct = "unknown"
			}
			tt := rep.ByCoreType[ct]
			if tt == nil {
				tt = &CoreTypeTime{}
				rep.ByCoreType[ct] = tt
			}
			tt.BusySec += ev.Dur / 1e6
			tt.Spans++
			if pid, ok := fnum(ev.Args, "pid"); ok {
				p := int(pid)
				byPid[p] = append(byPid[p], execSpan{ev.Ts / 1e6, end / 1e6, ct})
				if pidTask[p] == "" {
					pidTask[p] = ev.Name
				}
			}
		case "sched":
			if ev.Name != "migrate" {
				break
			}
			pid, _ := fnum(ev.Args, "pid")
			from, _ := fnum(ev.Args, "from")
			to, _ := fnum(ev.Args, "to")
			m := Migration{
				AtSec:    ev.Ts / 1e6,
				PID:      int(pid),
				From:     int(from),
				To:       int(to),
				FromType: fstr(ev.Args, "from_type"),
				ToType:   fstr(ev.Args, "to_type"),
				Task:     fstr(ev.Args, "task"),
			}
			rep.Migrations = append(rep.Migrations, m)
			if m.CrossType() {
				rep.CrossTypeMigrations++
			}
			pidMigrations[m.PID]++
		case "syscall":
			op := strings.TrimPrefix(ev.Name, "sys.")
			st := rep.Syscalls[op]
			if st == nil {
				st = &SyscallStats{Op: op, Errors: map[string]int{}, Buckets: map[int]int{}}
				rep.Syscalls[op] = st
			}
			st.Count++
			if e := fstr(ev.Args, "err"); e != "" && e != "ok" {
				st.Errors[e]++
			}
			if ns, ok := fnum(ev.Args, "wall_ns"); ok && ns >= 0 {
				latency[op] = append(latency[op], ns)
				st.Buckets[stats.Log2Bucket(ns)]++
			}
		case "degrade":
			rep.Degradations[strings.TrimPrefix(ev.Name, "degrade.")]++
		case "fault", "fault.plan":
			rep.Faults[strings.TrimPrefix(ev.Name, "fault.")]++
		}
	}
	if !first {
		rep.DurationSec = (tsMax - tsMin) / 1e6
	}
	for op, ns := range latency {
		finishSyscallStats(rep.Syscalls[op], ns)
	}
	totalBusy := 0.0
	for _, tt := range rep.ByCoreType {
		totalBusy += tt.BusySec
	}
	if totalBusy > 0 {
		for _, tt := range rep.ByCoreType {
			tt.Share = tt.BusySec / totalBusy
		}
	}
	rep.Critical = criticalPath(byPid, pidTask, pidMigrations)
	return rep
}

func finishSyscallStats(st *SyscallStats, ns []float64) {
	if st == nil || len(ns) == 0 {
		return
	}
	sort.Float64s(ns)
	st.MinNs = ns[0]
	st.MaxNs = ns[len(ns)-1]
	sum := 0.0
	for _, v := range ns {
		sum += v
	}
	st.MeanNs = sum / float64(len(ns))
	st.P50Ns = percentile(ns, 0.50)
	st.P95Ns = percentile(ns, 0.95)
}

// percentile reads the p-quantile from sorted data (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// execSpan is one exec interval of a pid, in seconds.
type execSpan struct {
	start, end float64
	coreType   string
}

// criticalPath picks the last-finishing pid's exec timeline: the run
// cannot end before its slowest task, so that task's busy/wait
// breakdown is the wall-clock story of the run.
func criticalPath(byPid map[int][]execSpan, pidTask map[int]string, pidMigrations map[int]int) *CriticalPath {
	bestPid, bestEnd := -1, math.Inf(-1)
	for pid, spans := range byPid {
		for _, sp := range spans {
			if sp.end > bestEnd || (sp.end == bestEnd && pid < bestPid) {
				bestPid, bestEnd = pid, sp.end
			}
		}
	}
	if bestPid < 0 {
		return nil
	}
	spans := byPid[bestPid]
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	cp := &CriticalPath{
		PID:        bestPid,
		Task:       pidTask[bestPid],
		StartSec:   spans[0].start,
		EndSec:     bestEnd,
		Segments:   len(spans),
		Migrations: pidMigrations[bestPid],
		ByCoreType: map[string]float64{},
	}
	cursor := cp.StartSec
	for _, sp := range spans {
		if sp.start > cursor {
			cp.WaitSec += sp.start - cursor
		}
		cp.BusySec += sp.end - sp.start
		cp.ByCoreType[sp.coreType] += sp.end - sp.start
		if sp.end > cursor {
			cursor = sp.end
		}
	}
	return cp
}

// String renders the report as the analyzer's text output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events (%d spans, %d instants) over %.3fs simulated\n",
		r.Events, r.Spans, r.Instants, r.DurationSec)

	if len(r.ByCoreType) > 0 {
		b.WriteString("\nper-core-type attribution:\n")
		for _, name := range sortedKeys(r.ByCoreType) {
			tt := r.ByCoreType[name]
			fmt.Fprintf(&b, "  %-12s %9.3fs busy  %5.1f%%  (%d exec spans)\n",
				name, tt.BusySec, tt.Share*100, tt.Spans)
		}
	}

	fmt.Fprintf(&b, "\nmigrations: %d total, %d across core types\n",
		len(r.Migrations), r.CrossTypeMigrations)
	show := r.Migrations
	const maxShown = 12
	truncated := false
	if len(show) > maxShown {
		show = show[:maxShown]
		truncated = true
	}
	for _, m := range show {
		marker := " "
		if m.CrossType() {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s t=%8.3fs pid %d %s: cpu%d (%s) -> cpu%d (%s)\n",
			marker, m.AtSec, m.PID, m.Task, m.From, m.FromType, m.To, m.ToType)
	}
	if truncated {
		fmt.Fprintf(&b, "  ... %d more (\"*\" marks cross-core-type moves)\n", len(r.Migrations)-maxShown)
	}

	if len(r.Syscalls) > 0 {
		b.WriteString("\nsyscall latency (wall-clock service time):\n")
		for _, op := range sortedKeys(r.Syscalls) {
			st := r.Syscalls[op]
			errs := ""
			if len(st.Errors) > 0 {
				parts := make([]string, 0, len(st.Errors))
				for _, e := range sortedKeys(st.Errors) {
					parts = append(parts, fmt.Sprintf("%s×%d", e, st.Errors[e]))
				}
				errs = "  errors: " + strings.Join(parts, " ")
			}
			fmt.Fprintf(&b, "  %-10s n=%-6d p50=%6.0fns p95=%6.0fns max=%6.0fns%s\n",
				op, st.Count, st.P50Ns, st.P95Ns, st.MaxNs, errs)
		}
	}

	if len(r.Degradations) > 0 {
		b.WriteString("\ndegradation ladder:\n")
		for _, k := range sortedKeys(r.Degradations) {
			fmt.Fprintf(&b, "  %-20s %d\n", k, r.Degradations[k])
		}
	}
	if len(r.Faults) > 0 {
		b.WriteString("\nfault transitions:\n")
		for _, k := range sortedKeys(r.Faults) {
			fmt.Fprintf(&b, "  %-20s %d\n", k, r.Faults[k])
		}
	}

	if cp := r.Critical; cp != nil {
		fmt.Fprintf(&b, "\ncritical path: pid %d (%s), %.3fs -> %.3fs\n",
			cp.PID, cp.Task, cp.StartSec, cp.EndSec)
		fmt.Fprintf(&b, "  busy %.3fs, waiting %.3fs, %d segments, %d migrations\n",
			cp.BusySec, cp.WaitSec, cp.Segments, cp.Migrations)
		for _, name := range sortedKeys(cp.ByCoreType) {
			fmt.Fprintf(&b, "  on %-12s %.3fs\n", name, cp.ByCoreType[name])
		}
	}

	if o := r.Overhead; o != nil {
		fmt.Fprintf(&b, "\nrecorder self-overhead: %d emitted, %d retained, %d dropped, %d bytes\n",
			o.SpansEmitted, o.SpansRetained, o.SpansDropped, o.BytesRetained)
		if o.TickCostRatio > 0 {
			fmt.Fprintf(&b, "  tick cost: %.0fns disabled, %.0fns enabled (ratio %.3f)\n",
				o.TickNsDisabled, o.TickNsEnabled, o.TickCostRatio)
		}
	}
	return b.String()
}

// Diff renders the differences between two reports (a = baseline,
// b = candidate), for comparing two traces of the same scenario.
func Diff(a, b *Report) string {
	var out strings.Builder
	fmt.Fprintf(&out, "duration: %.3fs -> %.3fs (%+.3fs)\n",
		a.DurationSec, b.DurationSec, b.DurationSec-a.DurationSec)
	for _, name := range unionKeys(a.ByCoreType, b.ByCoreType) {
		var av, bv float64
		if t := a.ByCoreType[name]; t != nil {
			av = t.BusySec
		}
		if t := b.ByCoreType[name]; t != nil {
			bv = t.BusySec
		}
		fmt.Fprintf(&out, "busy %-12s %9.3fs -> %9.3fs (%+.3fs)\n", name, av, bv, bv-av)
	}
	fmt.Fprintf(&out, "migrations: %d -> %d (%+d); cross-type %d -> %d (%+d)\n",
		len(a.Migrations), len(b.Migrations), len(b.Migrations)-len(a.Migrations),
		a.CrossTypeMigrations, b.CrossTypeMigrations, b.CrossTypeMigrations-a.CrossTypeMigrations)
	for _, op := range unionKeys(a.Syscalls, b.Syscalls) {
		var ac, bc int
		if s := a.Syscalls[op]; s != nil {
			ac = s.Count
		}
		if s := b.Syscalls[op]; s != nil {
			bc = s.Count
		}
		if ac != bc {
			fmt.Fprintf(&out, "syscall %-10s %d -> %d (%+d)\n", op, ac, bc, bc-ac)
		}
	}
	for _, k := range unionKeys(a.Degradations, b.Degradations) {
		if a.Degradations[k] != b.Degradations[k] {
			fmt.Fprintf(&out, "degrade %-20s %d -> %d (%+d)\n",
				k, a.Degradations[k], b.Degradations[k], b.Degradations[k]-a.Degradations[k])
		}
	}
	ac, bc := a.Critical, b.Critical
	if ac != nil && bc != nil {
		fmt.Fprintf(&out, "critical path busy: %.3fs -> %.3fs (%+.3fs); wait %.3fs -> %.3fs\n",
			ac.BusySec, bc.BusySec, bc.BusySec-ac.BusySec, ac.WaitSec, bc.WaitSec)
	}
	return out.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unionKeys[A, B any](a map[string]A, b map[string]B) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}
