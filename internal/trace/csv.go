package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hetpapi/internal/stats"
)

// CSV round-trip for monitoring traces: the mon_hpl.py artifact writes one
// raw CSV per run and process_runs.py consumes them into an averaged run.
// The schema is one row per sample:
//
//	time_s, cpu0_mhz, ..., cpuN_mhz, temp_c, energy_j, power_w, wall_w

// ColumnNames returns the canonical schema columns for an ncpu-CPU trace,
// in file order: time_s, cpu0_mhz..cpuN_mhz, temp_c, energy_j, power_w,
// wall_w. The CSV writer, the parser's header validation and the telemetry
// series naming all derive from this one list.
func ColumnNames(ncpu int) []string {
	cols := make([]string, 0, ncpu+5)
	cols = append(cols, "time_s")
	for cpu := 0; cpu < ncpu; cpu++ {
		cols = append(cols, fmt.Sprintf("cpu%d_mhz", cpu))
	}
	return append(cols, "temp_c", "energy_j", "power_w", "wall_w")
}

// WriteCSV emits samples in the monitoring schema. ncpu fixes the column
// count (samples with fewer frequency entries are zero-padded).
func WriteCSV(w io.Writer, ncpu int, samples []Sample) error {
	cw := csv.NewWriter(w)
	header := ColumnNames(ncpu)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range samples {
		row := []string{formatF(s.TimeSec)}
		for cpu := 0; cpu < ncpu; cpu++ {
			var f float64
			if cpu < len(s.FreqMHz) {
				f = s.FreqMHz[cpu]
			}
			row = append(row, formatF(f))
		}
		row = append(row, formatF(s.TempC), formatF(s.EnergyJ), formatF(s.PowerW), formatF(s.WallW))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(f float64) string { return strconv.FormatFloat(f, 'f', 3, 64) }

// ParseCSV reads a trace written by WriteCSV (or the monhpl tool) back
// into samples.
func ParseCSV(r io.Reader) ([]Sample, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	header := rows[0]
	if len(header) < 5 || header[0] != "time_s" {
		return nil, fmt.Errorf("trace: unrecognized header %v", header)
	}
	// The schema is positional: exactly cpu0_mhz..cpuN-1_mhz in order,
	// then the four fixed columns. Reject anything else rather than guess.
	ncpu := len(header) - 5
	for i := 0; i < ncpu; i++ {
		if want := fmt.Sprintf("cpu%d_mhz", i); header[1+i] != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", 1+i, header[1+i], want)
		}
	}
	for i, want := range []string{"temp_c", "energy_j", "power_w", "wall_w"} {
		if got := header[1+ncpu+i]; got != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", 1+ncpu+i, got, want)
		}
	}
	wantCols := 1 + ncpu + 4
	var out []Sample
	for i, row := range rows[1:] {
		if len(row) != wantCols {
			return nil, fmt.Errorf("trace: row %d has %d columns, want %d", i+1, len(row), wantCols)
		}
		vals := make([]float64, len(row))
		for j, cell := range row {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d column %q: %v", i+1, header[j], err)
			}
			vals[j] = v
		}
		s := Sample{TimeSec: vals[0], FreqMHz: vals[1 : 1+ncpu]}
		s.TempC = vals[1+ncpu]
		s.EnergyJ = vals[2+ncpu]
		s.PowerW = vals[3+ncpu]
		s.WallW = vals[4+ncpu]
		out = append(out, s)
	}
	return out, nil
}

// Summary condenses a trace for reporting, the way process_runs.py's
// outputs feed the paper's figures.
type Summary struct {
	// Samples and DurationSec describe the trace extent.
	Samples     int
	DurationSec float64
	// MeanPowerW / PeakPowerW summarize the package power series (first
	// sample excluded: it has no energy delta).
	MeanPowerW float64
	PeakPowerW float64
	// EnergyJ is the final cumulative energy reading.
	EnergyJ float64
	// MaxTempC is the hottest zone sample.
	MaxTempC float64
	// MedianFreqMHz holds the per-CPU median frequency.
	MedianFreqMHz []float64
}

// Summarize computes the summary of a trace.
func Summarize(samples []Sample) Summary {
	var sum Summary
	sum.Samples = len(samples)
	if len(samples) == 0 {
		return sum
	}
	sum.DurationSec = samples[len(samples)-1].TimeSec - samples[0].TimeSec
	sum.EnergyJ = samples[len(samples)-1].EnergyJ
	ncpu := len(samples[0].FreqMHz)
	sum.MedianFreqMHz = make([]float64, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		sum.MedianFreqMHz[cpu] = stats.Median(FreqSeries(samples, cpu))
	}
	power := PowerSeries(samples)
	if len(power) > 1 {
		power = power[1:]
	}
	var total float64
	for _, p := range power {
		total += p
		if p > sum.PeakPowerW {
			sum.PeakPowerW = p
		}
	}
	if len(power) > 0 {
		sum.MeanPowerW = total / float64(len(power))
	}
	for _, s := range samples {
		if s.TempC > sum.MaxTempC {
			sum.MaxTempC = s.TempC
		}
	}
	return sum
}
