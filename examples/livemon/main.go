// Livemon: live heterogeneous monitoring through the telemetry subsystem.
// It starts the hetpapid serving stack in-process — sharded time-series
// store, per-machine collector, HTTP API — runs a hybrid scenario with the
// collector attached, and watches the run from the outside through the
// HTTP client the way a dashboard would: live per-core-type instruction
// totals, package power, and the collector's own overhead gauge.
//
// Run with: go run ./examples/livemon
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"hetpapi/internal/scenario"
	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/client"
)

func main() {
	// The serving stack hetpapid runs: store, collector, HTTP API.
	store := telemetry.NewStore(telemetry.Config{Capacity: 4096})
	api := telemetry.NewServer(store, 5*time.Second)

	spec := scenario.Spec{}
	for _, s := range scenario.Reference() {
		if s.Name == "dimensity-mixed-injects" {
			spec = s
		}
	}
	if spec.Name == "" {
		log.Fatal("reference scenario dimensity-mixed-injects not found")
	}
	col := telemetry.NewCollector(store, spec.Name, 1)
	api.Register(spec.Name, spec.Name, spec.Machine, col)
	spec.StepHooks = []scenario.StepHook{col.Hook()}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: api.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	fmt.Printf("telemetry API on http://%s\n\n", ln.Addr())

	// Run the scenario in the background — the collection goroutine.
	runDone := make(chan error, 1)
	go func() {
		api.SetRunning(spec.Name, true)
		defer api.SetRunning(spec.Name, false)
		_, err := scenario.Run(spec)
		runDone <- err
	}()

	// Watch it live over HTTP, the way a dashboard would.
	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	fmt.Printf("%-10s %10s %12s %s\n", "sim time", "power", "overhead/tick", "instructions by core type")
watch:
	for {
		select {
		case err := <-runDone:
			if err != nil {
				log.Fatal(err)
			}
			break watch
		case <-ticker.C:
			ms, err := c.Machines(ctx)
			if err != nil || len(ms) == 0 || ms[0].Ticks == 0 {
				continue
			}
			pw, err := c.Query(ctx, telemetry.QueryRequest{Machine: spec.Name, Series: "power_w", Agg: true})
			if err != nil || pw.Aggregate == nil {
				continue
			}
			groups, err := c.Query(ctx, telemetry.QueryRequest{Machine: spec.Name, Kind: "instructions", By: "type"})
			if err != nil {
				continue
			}
			var byType []string
			for _, g := range groups.Groups {
				byType = append(byType, fmt.Sprintf("%s %.2e", g.Type, g.LastSum))
			}
			fmt.Printf("%8.1fs %8.1f W %10.1f µs   %s\n",
				ms[0].SimSec, pw.Aggregate.Last, ms[0].OverheadPerTickSec*1e6,
				strings.Join(byType, "  "))
		}
	}

	// Final state: the summary a monitoring stack would alert on.
	fmt.Println("\nrun finished; final telemetry:")
	ms, err := c.Machines(ctx)
	if err != nil || len(ms) == 0 {
		log.Fatal(err)
	}
	m := ms[0]
	fmt.Printf("  %d ticks over %.1fs simulated, %d runs\n", m.Ticks, m.SimSec, m.Runs+1)
	fmt.Printf("  ingestion: %.3fs wall (%.2f%% of the run loop, %.1f µs/tick)\n",
		m.IngestSec, m.OverheadRatio*100, m.OverheadPerTickSec*1e6)
	groups, err := c.Query(ctx, telemetry.QueryRequest{Machine: spec.Name, Kind: "instructions", By: "type"})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range groups.Groups {
		fmt.Printf("  %-12s %d cpus, %.3e instructions (mean/cpu-sample %.3e, p95 %.3e)\n",
			g.Type, g.Series, g.LastSum, g.Agg.Mean, g.Agg.P95)
	}

	// And the Prometheus view of the same numbers.
	text, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n/metrics excerpt:")
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "hetpapid_") || strings.HasPrefix(line, "hetpapi_pkg_") {
			fmt.Println("  " + line)
		}
	}
}
