package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"hetpapi/internal/stats"
)

// benchmarkFile is the part of BENCHMARK.json the comparator needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// recordLine is one line of a --record file.
type recordLine struct {
	Record runRecord `json:"record"`
	Result result    `json:"result"`
}

// readRecords loads the untraced results of a --record file, grouped by
// workload in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var l recordLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !l.Record.Trace {
			out[l.Record.Workload] = append(out[l.Record.Workload], l.Result)
		}
	}
	return out, sc.Err()
}

// compareMain compares two result sets, the parent's first, metric by
// metric and workload by workload. Runs pair up in file order. A change
// is "unresolved" when either side's spread exceeds the bound, unless
// every change run beats every parent run; otherwise "better" when it
// wins at least nine tenths of the pairs (ties count for neither side)
// and the medians differ by more than the parent's own quartile spread;
// "worse" when its median is worse than the parent's by more than the
// bound; otherwise "same".
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare PARENT.jsonl CHANGE.jsonl (from the directory holding BENCHMARK.json)")
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	var wls []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "parent_med", "parent_q1", "parent_q3", "change_med", "change_q1", "change_q3", "wins", "verdict")
	for _, wl := range wls {
		for _, mt := range bf.EndToEnd {
			a, b := values(parent[wl], mt.Name), values(change[wl], mt.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, mt.Better == "higher", mt.Bound)
			fmt.Fprintf(w, "%-20s %-22s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g %3d/%-2d  %s\n",
				wl, mt.Name, v.pMed, v.pQ1, v.pQ3, v.cMed, v.cQ1, v.cQ3, v.wins, v.pairs, v.verdict)
		}
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type verdict struct {
	pMed, pQ1, pQ3, cMed, cQ1, cQ3 float64
	wins, pairs                    int
	verdict                        string
}

// judge applies the paired-win rule to one (workload, metric).
func judge(parent, change []float64, higher bool, bound float64) verdict {
	v := verdict{pMed: stats.Median(parent), cMed: stats.Median(change)}
	v.pQ1, v.pQ3 = quartiles(parent)
	v.cQ1, v.cQ3 = quartiles(change)
	better := func(c, p float64) bool {
		if higher {
			return c > p
		}
		return c < p
	}
	for i := 0; i < len(parent) && i < len(change); i++ {
		v.pairs++
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	spread := func(q1, q3, med float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / med
	}
	worse := (v.cMed - v.pMed) / v.pMed
	if higher {
		worse = -worse
	}
	switch {
	case (spread(v.pQ1, v.pQ3, v.pMed) > bound || spread(v.cQ1, v.cQ3, v.cMed) > bound) && !allBetter:
		v.verdict = "unresolved"
	case 10*v.wins >= 9*v.pairs && math.Abs(v.cMed-v.pMed) > v.pQ3-v.pQ1 && better(v.cMed, v.pMed):
		v.verdict = "better"
	case worse > bound:
		v.verdict = "worse"
	default:
		v.verdict = "same"
	}
	return v
}
