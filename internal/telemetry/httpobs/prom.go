package httpobs

import (
	"fmt"
	"io"
)

// Family accumulates one Prometheus exposition family's sample lines.
// The telemetry server builds its own /metrics families with it too, so
// both halves of the exposition share one format.
type Family struct {
	Name, Help, Kind string
	lines            []string
}

// Add appends one sample with the given label set.
func (f *Family) Add(labels string, v float64) {
	f.lines = append(f.lines, fmt.Sprintf("%s{%s} %g", f.Name, labels, v))
}

// WriteFamilies writes each family that holds samples, in order: its
// HELP and TYPE lines, then its samples.
func WriteFamilies(w io.Writer, fams ...*Family) {
	for _, f := range fams {
		if len(f.lines) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// WritePrometheus appends the hetpapid_http_* families to a /metrics
// exposition: per-endpoint request/status-class/error counters,
// in-flight and byte gauges, gzip hits, latency percentiles and SLO
// attainment/burn gauges, plus the slow-ring fill. Endpoints with no
// traffic are omitted, keeping the exposition proportional to what the
// daemon actually served.
func (o *Obs) WritePrometheus(w io.Writer) {
	req := &Family{Name: "hetpapid_http_requests_total", Help: "Requests served, by endpoint and status class.", Kind: "counter"}
	errs := &Family{Name: "hetpapid_http_errors_total", Help: "Requests answered with status >= 400, by endpoint.", Kind: "counter"}
	infl := &Family{Name: "hetpapid_http_in_flight", Help: "Requests currently being served, by endpoint.", Kind: "gauge"}
	bin := &Family{Name: "hetpapid_http_request_bytes_total", Help: "Request body bytes received, by endpoint.", Kind: "counter"}
	bout := &Family{Name: "hetpapid_http_response_bytes_total", Help: "Response body bytes written (post-compression), by endpoint.", Kind: "counter"}
	gz := &Family{Name: "hetpapid_http_gzip_hits_total", Help: "Responses served with gzip content-encoding, by endpoint.", Kind: "counter"}
	lat := &Family{Name: "hetpapid_http_latency_ms", Help: "Request latency percentiles over the recent window, by endpoint.", Kind: "gauge"}
	attain := &Family{Name: "hetpapid_http_slo_attainment_pct", Help: "Percentage of requests within the latency SLO target, by endpoint.", Kind: "gauge"}
	burn := &Family{Name: "hetpapid_http_slo_burn", Help: "1 when the endpoint is currently burning a serving objective, by endpoint and kind.", Kind: "gauge"}
	slow := &Family{Name: "hetpapid_http_slow_requests", Help: "Slow requests currently held in the bounded ring.", Kind: "gauge"}
	slowDrop := &Family{Name: "hetpapid_http_slow_dropped_total", Help: "Slow-ring entries dropped by wraparound.", Kind: "counter"}

	st := o.Report()
	for _, es := range st.Endpoints {
		el := fmt.Sprintf("endpoint=%q", es.Endpoint)
		for _, class := range classNames {
			if n, ok := es.StatusClass[class]; ok {
				req.Add(fmt.Sprintf("%s,class=%q", el, class), float64(n))
			}
		}
		errs.Add(el, float64(es.Errors))
		infl.Add(el, float64(es.InFlight))
		bin.Add(el, float64(es.BytesIn))
		bout.Add(el, float64(es.BytesOut))
		gz.Add(el, float64(es.GzipHits))
		lat.Add(el+`,quantile="0.5"`, es.P50Ms)
		lat.Add(el+`,quantile="0.95"`, es.P95Ms)
		lat.Add(el+`,quantile="0.99"`, es.P99Ms)
		attain.Add(el, es.SLO.LatencyAttainPct)
		burn.Add(el+`,kind="latency"`, b2f(es.SLO.LatencyBurn))
		burn.Add(el+`,kind="error"`, b2f(es.SLO.ErrorBurn))
	}
	slow.Add(`ring="slow"`, float64(len(st.SlowRequests)))
	slowDrop.Add(`ring="slow"`, float64(st.SlowDropped))

	WriteFamilies(w, req, errs, infl, bin, bout, gz, lat, attain, burn, slow, slowDrop)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
