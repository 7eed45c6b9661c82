// Package result holds what the benchmark and its compare tool share: the
// result line a run prints, the record a run appends to a result set, and
// the quartile arithmetic both sides summarize with.
package result

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Value is one metric reading with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metric is one metric as BENCHMARK.json defines it; per-layer metrics
// have no bound.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadSpec reads the benchmark definition at path.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("result: %s: %w", path, err)
	}
	return &s, nil
}

// Line is the JSON object a run prints as the last line of its output.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Record is one run of one workload in a result set: the file `-record`
// appends to, one JSON object per line.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Line   `json:"result"`
}

// Append writes rec as one line at the end of the result set at path.
func Append(path string, rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result: append to %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a result set: either records one per line, or a summary
// object (as compare -json writes) whose "runs" array holds them.
func Load(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	dec := json.NewDecoder(f)
	for {
		var v struct {
			Record
			Runs []Record `json:"runs"`
		}
		if err := dec.Decode(&v); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("result: %s: %w", path, err)
		}
		if v.Runs != nil {
			out = append(out, v.Runs...)
		} else {
			out = append(out, v.Record)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("result: %s holds no runs", path)
	}
	return out, nil
}

// Quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4). A single
// value is its own quartiles; an empty slice returns zeros.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
