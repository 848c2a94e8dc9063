package httpobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzStatusEndpoint drives a fuzzer-chosen request sequence through
// the middleware (each input byte triple picks an endpoint, a status
// code and a latency) and checks the /status invariants: totals equal
// per-endpoint sums across every counter family, rates stay in [0,
// 100], percentiles are ordered, the slow ring holds exactly the most
// recent requests at or over the slow threshold up to its capacity and
// counts the rest as dropped, and the report survives a JSON round
// trip.
func FuzzStatusEndpoint(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 9, 200, 2, 13, 0, 3, 4, 255})
	f.Add([]byte{7, 250, 8, 7, 250, 8, 7, 250, 8, 7, 250, 8})
	f.Add(bytes.Repeat([]byte{1, 0, 200}, slowRingCapacity+6)) // wraps the slow ring

	paths := []string{"/health", "/series", "/query", "/fleet/query", "/metrics"}
	statuses := []int{200, 200, 204, 301, 400, 404, 500, 503}

	f.Fuzz(func(t *testing.T, data []byte) {
		clock := newFakeClock()
		o := New(Config{
			Endpoints: paths[:3], // the rest land in "other"
			Now:       clock.Now,
		})
		o.SetSLO(5, DefaultSLOErrorPct)
		inner := func(w http.ResponseWriter, r *http.Request) {
			code := statuses[0]
			if c := r.Header.Get("X-Code"); c != "" {
				fmt.Sscanf(c, "%d", &code)
			}
			if code >= 200 && code != 204 && code != 301 {
				w.Header().Set("Content-Encoding", "gzip")
			}
			w.WriteHeader(code)
			if code != 204 {
				w.Write([]byte("body"))
			}
		}
		h := o.Middleware(http.HandlerFunc(inner))

		var want, wantSlow uint64
		for i := 0; i+2 < len(data); i += 3 {
			path := paths[int(data[i])%len(paths)]
			code := statuses[int(data[i+1])%len(statuses)]
			// 5ms per unit: a latency byte >= 20 crosses the 100ms slow
			// threshold.
			step := time.Duration(data[i+2]) * 5 * time.Millisecond
			if step >= slowThreshold {
				wantSlow++
			}
			clock.setStep(step)
			req := httptest.NewRequest("GET", path, strings.NewReader("in"))
			req.Header.Set("X-Code", fmt.Sprint(code))
			h.ServeHTTP(httptest.NewRecorder(), req)
			want++
		}

		st := o.Report()
		if st.Requests != want {
			t.Fatalf("total requests %d, want %d", st.Requests, want)
		}
		if st.InFlight != 0 {
			t.Fatalf("in-flight %d at rest", st.InFlight)
		}
		var sumReq, sumErr, sumClass, sumBuckets uint64
		for _, es := range st.Endpoints {
			sumReq += es.Requests
			sumErr += es.Errors
			for _, c := range es.StatusClass {
				sumClass += c
			}
			for _, c := range es.LatencyLog2Ns {
				sumBuckets += c
			}
			if es.ErrorPct < 0 || es.ErrorPct > 100 ||
				es.GzipPct < 0 || es.GzipPct > 100 ||
				es.SLO.LatencyAttainPct < 0 || es.SLO.LatencyAttainPct > 100 {
				t.Fatalf("rate out of range: %+v", es)
			}
			// The quantile estimator interpolates in float64, so adjacent
			// quantiles of near-identical samples can disagree by an ulp;
			// the ordering invariant holds up to that rounding.
			if es.P50Ms > es.P95Ms+1e-9 || es.P95Ms > es.P99Ms+1e-9 || es.P99Ms > es.MaxMs+1e-9 {
				t.Fatalf("percentiles disordered: p50 %g p95 %g p99 %g max %g",
					es.P50Ms, es.P95Ms, es.P99Ms, es.MaxMs)
			}
			if es.Requests < MinSLORequests && (es.SLO.LatencyBurn || es.SLO.ErrorBurn) {
				t.Fatalf("burn below sample floor: %+v", es)
			}
		}
		if sumReq != want || sumClass != want || sumBuckets != want {
			t.Fatalf("per-endpoint sums %d/%d/%d, want %d", sumReq, sumClass, sumBuckets, want)
		}
		if sumErr != st.Errors {
			t.Fatalf("error sum %d != total %d", sumErr, st.Errors)
		}
		held := min(wantSlow, slowRingCapacity)
		if uint64(len(st.SlowRequests)) != held || st.SlowDropped != wantSlow-held {
			t.Fatalf("slow ring holds %d, dropped %d; want %d, %d",
				len(st.SlowRequests), st.SlowDropped, held, wantSlow-held)
		}
		for _, b := range st.Burns {
			if b.Kind != "latency" && b.Kind != "error" {
				t.Fatalf("unknown burn kind %q", b.Kind)
			}
		}

		// The report must survive a JSON round trip (it is the /status
		// payload) and the exposition must be deterministic.
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Status
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.Requests != st.Requests || len(back.Endpoints) != len(st.Endpoints) {
			t.Fatalf("round trip changed the report")
		}
		var b1, b2 strings.Builder
		o.WritePrometheus(&b1)
		o.WritePrometheus(&b2)
		if b1.String() != b2.String() {
			t.Fatal("exposition not deterministic")
		}
	})
}
