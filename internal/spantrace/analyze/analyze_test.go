package analyze

import (
	"bytes"
	"strings"
	"testing"

	"hetpapi/internal/spantrace"
)

// buildTrace records a synthetic cross-layer trace with known busy
// times, migrations, syscalls and degradations, exports it and parses
// it back — exercising the full wire round trip the analyzer sees in
// production.
func buildTrace(t *testing.T) *Trace {
	t.Helper()
	r := spantrace.New(spantrace.Config{})
	r.Enable()
	cpu0 := r.Track("cpu0 P-core")
	cpu1 := r.Track("cpu1 E-core")
	sched := r.Track("sched")
	kern := r.Track("kernel")
	papi := r.Track("papi")
	r.BeginContext("test-run")

	// pid 1000: 2s on the P-core, then migrates and runs 1s on the
	// E-core after a 0.5s wait. pid 1001: 1s on the E-core.
	r.Span(cpu0, "hpl", "exec", 0, 2,
		spantrace.Int("pid", 1000), spantrace.Str("core_type", "P-core"))
	r.Span(cpu1, "spin", "exec", 0, 1,
		spantrace.Int("pid", 1001), spantrace.Str("core_type", "E-core"))
	r.Instant(sched, "migrate", "sched", 2.5,
		spantrace.Int("pid", 1000), spantrace.Int("from", 0), spantrace.Int("to", 1),
		spantrace.Str("from_type", "P-core"), spantrace.Str("to_type", "E-core"),
		spantrace.Str("task", "hpl"))
	r.Span(cpu1, "hpl", "exec", 2.5, 1,
		spantrace.Int("pid", 1000), spantrace.Str("core_type", "E-core"))

	for i := 0; i < 4; i++ {
		r.Instant(kern, "sys.read", "syscall", float64(i),
			spantrace.Err(nil), spantrace.Num("wall_ns", float64(100+i*100)))
	}
	r.Instant(kern, "sys.open", "syscall", 0.1,
		spantrace.Str("err", "EBUSY"), spantrace.Num("wall_ns", 900))
	// 2^49-1 ns: the largest value of log2 bucket 48.
	r.Instant(kern, "sys.ioctl", "syscall", 0.2,
		spantrace.Err(nil), spantrace.Num("wall_ns", 562949953421311))
	r.Instant(papi, "degrade.busy-retry", "degrade", 0.2)
	r.Instant(papi, "degrade.busy-retry", "degrade", 0.3)
	r.Instant(kern, "fault.hotplug-off", "fault", 1.5, spantrace.Int("cpu", 1))

	var buf bytes.Buffer
	if err := spantrace.WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParse(t *testing.T) {
	tr := buildTrace(t)
	if got := tr.TrackName[1]; got != "cpu0 P-core" {
		t.Errorf("track 1 name = %q", got)
	}
	if tr.Other == nil || tr.Other.Tool != "hetpapitrace" {
		t.Errorf("otherData = %+v", tr.Other)
	}
	for _, ev := range tr.Events {
		if ev.Ph == "M" {
			t.Fatal("metadata event leaked into Events")
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("not json")); err == nil {
		t.Fatal("Parse accepted garbage")
	}
}

func TestAnalyzeAttribution(t *testing.T) {
	rep := Analyze(buildTrace(t))

	p := rep.ByCoreType["P-core"]
	e := rep.ByCoreType["E-core"]
	if p == nil || e == nil {
		t.Fatalf("ByCoreType = %+v", rep.ByCoreType)
	}
	if !near(p.BusySec, 2) || p.Spans != 1 {
		t.Errorf("P-core = %+v, want 2s over 1 span", p)
	}
	if !near(e.BusySec, 2) || e.Spans != 2 {
		t.Errorf("E-core = %+v, want 2s over 2 spans", e)
	}
	if !near(p.Share, 0.5) || !near(e.Share, 0.5) {
		t.Errorf("shares = %v / %v, want 0.5 each", p.Share, e.Share)
	}
}

func TestAnalyzeMigrations(t *testing.T) {
	rep := Analyze(buildTrace(t))
	if len(rep.Migrations) != 1 || rep.CrossTypeMigrations != 1 {
		t.Fatalf("migrations = %+v (cross=%d)", rep.Migrations, rep.CrossTypeMigrations)
	}
	m := rep.Migrations[0]
	if m.PID != 1000 || m.From != 0 || m.To != 1 || !m.CrossType() || !near(m.AtSec, 2.5) {
		t.Errorf("migration = %+v", m)
	}
}

func TestAnalyzeSyscalls(t *testing.T) {
	rep := Analyze(buildTrace(t))
	rd := rep.Syscalls["read"]
	if rd == nil || rd.Count != 4 {
		t.Fatalf("read stats = %+v", rd)
	}
	if rd.MinNs != 100 || rd.MaxNs != 400 || !near(rd.MeanNs, 250) {
		t.Errorf("read latency = %+v", rd)
	}
	if rd.P50Ns != 200 || rd.P95Ns != 400 {
		t.Errorf("read percentiles p50=%v p95=%v", rd.P50Ns, rd.P95Ns)
	}
	// 100,200 -> bucket 6/7; 300 -> 8; 400 -> 8.
	if rd.Buckets[8] != 2 {
		t.Errorf("read histogram = %v", rd.Buckets)
	}
	op := rep.Syscalls["open"]
	if op == nil || op.Errors["EBUSY"] != 1 {
		t.Fatalf("open stats = %+v", op)
	}
	if io := rep.Syscalls["ioctl"]; io == nil || io.Buckets[48] != 1 || len(io.Buckets) != 1 {
		t.Errorf("ioctl histogram = %+v, want 2^49-1 ns in bucket 48", io)
	}
}

func TestAnalyzeDegradationsAndFaults(t *testing.T) {
	rep := Analyze(buildTrace(t))
	if rep.Degradations["busy-retry"] != 2 {
		t.Errorf("degradations = %v", rep.Degradations)
	}
	if rep.Faults["hotplug-off"] != 1 {
		t.Errorf("faults = %v", rep.Faults)
	}
}

func TestAnalyzeCriticalPath(t *testing.T) {
	rep := Analyze(buildTrace(t))
	cp := rep.Critical
	if cp == nil {
		t.Fatal("no critical path")
	}
	// pid 1000 finishes last (3.5s): 3s busy, 0.5s waiting between its
	// P-core and E-core segments, one migration.
	if cp.PID != 1000 || cp.Task != "hpl" {
		t.Fatalf("critical path = %+v", cp)
	}
	if !near(cp.BusySec, 3) || !near(cp.WaitSec, 0.5) || cp.Segments != 2 || cp.Migrations != 1 {
		t.Errorf("critical path = %+v", cp)
	}
	if !near(cp.ByCoreType["P-core"], 2) || !near(cp.ByCoreType["E-core"], 1) {
		t.Errorf("critical path attribution = %v", cp.ByCoreType)
	}
}

func TestReportString(t *testing.T) {
	out := Analyze(buildTrace(t)).String()
	for _, want := range []string{
		"per-core-type attribution", "P-core", "E-core",
		"migrations: 1 total, 1 across core types",
		"syscall latency", "busy-retry", "hotplug-off",
		"critical path: pid 1000 (hpl)",
		"recorder self-overhead",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDiff(t *testing.T) {
	a := Analyze(buildTrace(t))
	b := Analyze(buildTrace(t))
	b.Migrations = append(b.Migrations, Migration{PID: 1001, FromType: "E-core", ToType: "P-core"})
	b.CrossTypeMigrations++
	b.Degradations["busy-retry"] = 5
	out := Diff(a, b)
	for _, want := range []string{
		"migrations: 1 -> 2 (+1)",
		"degrade busy-retry", "2 -> 5 (+3)",
		"critical path busy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	r := spantrace.New(spantrace.Config{})
	var buf bytes.Buffer
	if err := spantrace.WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(tr)
	if rep.Events != 0 || rep.Critical != nil || rep.DurationSec != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report renders nothing")
	}
}

func near(got, want float64) bool {
	d := got - want
	return d < 1e-6 && d > -1e-6
}
