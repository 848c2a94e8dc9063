package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hetpapi/internal/telemetry"
	"hetpapi/internal/telemetry/client"
)

// serveRate is the offered load in requests per second: about a third
// of the closed-loop capacity measured with --capacity while a fleet
// streams beside the server on the same 2-CPU host. It is fixed, not
// derived per run, so a faster server meets the same load as a slower
// one.
const serveRate = 270

// loadWorkers bounds the generator's in-flight requests. The workers
// wait on sockets; the only busy goroutines are the dispatcher's brief
// wake-ups, the server's handlers and, on serve-during-ingest, the fleet.
const loadWorkers = 4

// endpoint is one entry of hetpapiload's endpoint mix.
type endpoint struct {
	name   string // layer name in metric names
	path   string // accounting path, as /status reports it
	weight int
	target func(machines []string, rng *rand.Rand) string
}

var endpoints = []endpoint{
	{"query", "/query", 30, func(ms []string, rng *rand.Rand) string {
		return "/query?machine=" + ms[rng.Intn(len(ms))] + "&series=power_w&agg=1"
	}},
	{"series", "/series", 20, func(ms []string, rng *rand.Rand) string {
		return "/series?machine=" + ms[rng.Intn(len(ms))]
	}},
	{"fleet", "/fleet/query", 15, func([]string, *rand.Rand) string { return "/fleet/query?rung=10s" }},
	{"metrics", "/metrics", 15, func([]string, *rand.Rand) string { return "/metrics" }},
	{"status", "/status", 10, func([]string, *rand.Rand) string { return "/status" }},
	{"health", "/health", 10, func([]string, *rand.Rand) string { return "/health" }},
}

// serveRig is the daemon's composed handler on a loopback listener.
type serveRig struct {
	base   string
	srv    *http.Server
	served chan struct{}
}

func startServe(store *telemetry.Store) (*serveRig, error) {
	api := telemetry.NewServer(store, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &serveRig{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: api.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return r, nil
}

// close stops the server and waits until its accept loop has returned.
func (r *serveRig) close() {
	r.srv.Close()
	<-r.served
}

// job is one scheduled request.
type job struct {
	at     time.Duration // due time, from the start of the load
	ep     int
	target string
	gzip   bool
}

// schedule derives an open-loop schedule of n requests from the seed:
// request k is due at k/rate, its endpoint drawn by weight, and half of
// them ask for gzip.
func schedule(seed int64, rate float64, n int, machines []string) []job {
	var pick []int
	for i, e := range endpoints {
		for w := 0; w < e.weight; w++ {
			pick = append(pick, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]job, n)
	for k := range jobs {
		ep := pick[rng.Intn(len(pick))]
		jobs[k] = job{
			at:     time.Duration(float64(k) / rate * float64(time.Second)),
			ep:     ep,
			target: endpoints[ep].target(machines, rng),
			gzip:   rng.Float64() < 0.5,
		}
	}
	return jobs
}

// loadResult is the client's view of a load run.
type loadResult struct {
	latMs      [][]float64 // per endpoint, from the due time
	allMs      []float64
	lagMs      []float64 // worker pick-up time minus due time
	requests   int
	failed     int
	maxBacklog int // requests released but not yet completed, at most
	mallocs    uint64
	bytesOut   uint64
	serverP50  []float64 // per endpoint, from /status
}

// loadGen sends one seeded open-loop schedule in slices. Within a slice
// a dispatcher releases each job at its due time to a small worker
// pool, whatever the state of earlier requests, and every request is
// timed from when it was due. Slices continue the schedule where the
// previous one stopped, with due times counted from the slice's start.
type loadGen struct {
	base      string
	transport *http.Transport
	httpc     *http.Client
	jobs      []job
	outcomes  []jobOutcome
	next      int
	res       loadResult
}

type jobOutcome struct {
	lat, lag time.Duration
	ok       bool
}

func newLoadGen(rig *serveRig, jobs []job) *loadGen {
	transport := &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: loadWorkers}
	return &loadGen{
		base:      rig.base,
		transport: transport,
		httpc:     &http.Client{Transport: transport, Timeout: 10 * time.Second},
		jobs:      jobs,
		outcomes:  make([]jobOutcome, len(jobs)),
	}
}

// send releases the jobs that fall due before until, then waits for
// them to complete.
func (g *loadGen) send(ctx context.Context, until time.Time) {
	first := g.next
	if first >= len(g.jobs) {
		return
	}
	// The queue holds the rest of the schedule, so a slow server delays
	// service but never the dispatcher.
	queue := make(chan int, len(g.jobs)-first)
	var completed atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	due := func(k int) time.Time { return start.Add(g.jobs[k].at - g.jobs[first].at) }
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				j := &g.jobs[k]
				lag := time.Since(due(k))
				ok := request(ctx, g.httpc, g.base+j.target, j.gzip, endpoints[j.ep].path == "/metrics")
				g.outcomes[k] = jobOutcome{lat: time.Since(due(k)), lag: lag, ok: ok}
				completed.Add(1)
			}
		}()
	}
	for ; g.next < len(g.jobs) && due(g.next).Before(until); g.next++ {
		if d := time.Until(due(g.next)); d > 0 {
			time.Sleep(d)
		}
		queue <- g.next
		if b := g.next - first + 1 - int(completed.Load()); b > g.res.maxBacklog {
			g.res.maxBacklog = b
		}
	}
	close(queue)
	wg.Wait()
	runtime.ReadMemStats(&m1)
	g.res.mallocs += m1.Mallocs - m0.Mallocs
}

// finish folds the outcomes of every sent job and checks them against
// the server's /status: the per-endpoint counts must equal the
// client's exactly, or every request to that endpoint counts as failed.
func (g *loadGen) finish(ctx context.Context) (loadResult, error) {
	defer g.transport.CloseIdleConnections()
	res := g.res
	res.latMs = make([][]float64, len(endpoints))
	res.requests = g.next
	sent := make([]int, len(endpoints))
	for k, o := range g.outcomes[:g.next] {
		ep := g.jobs[k].ep
		sent[ep]++
		ms := o.lat.Seconds() * 1e3
		res.latMs[ep] = append(res.latMs[ep], ms)
		res.allMs = append(res.allMs, ms)
		res.lagMs = append(res.lagMs, o.lag.Seconds()*1e3)
		if !o.ok {
			res.failed++
		}
	}
	status, err := client.New(g.base).Status(ctx)
	if err != nil {
		return res, fmt.Errorf("fetch /status: %w", err)
	}
	res.serverP50 = make([]float64, len(endpoints))
	for i, e := range endpoints {
		var got uint64
		for _, es := range status.Endpoints {
			if es.Endpoint == e.path {
				got = es.Requests
				res.serverP50[i] = es.P50Ms
				res.bytesOut += es.BytesOut
			}
		}
		if got != uint64(sent[i]) {
			res.failed += sent[i]
		}
	}
	return res, nil
}

// request performs one GET and checks the reply: a 2xx status and a
// body that decodes (gzip when the server says so; JSON except for the
// Prometheus text of /metrics).
func request(ctx context.Context, httpc *http.Client, url string, gz, text bool) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		return false
	}
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return false
		}
		if body, err = io.ReadAll(zr); err != nil {
			return false
		}
	}
	if text {
		return len(body) > 0
	}
	return json.Valid(body)
}
