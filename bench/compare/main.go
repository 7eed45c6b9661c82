// Command compare judges two result sets of the benchmark, recorded from
// alternating runs of a base and a head commit (bench -record), by the
// rules the benchmark is defined with:
//
//   - each side's median and quartiles, one row per workload and metric;
//   - a claimed gain (-claim metric@workload) holds only if head wins at
//     least 9 of every 10 pairs, ties counting for neither, and the medians
//     differ by more than the base's interquartile range;
//   - every other metric is flagged WORSE when its median worsens by more
//     than the bound in BENCHMARK.json, and unresolved when the runs
//     spread wider than the bound, unless every head run beats every base
//     run;
//   - sim_* metrics are results of a deterministic model and must match
//     exactly on every seed both sides ran; failed operations are compared
//     as a share of those attempted, and a side that fails more cannot
//     claim a gain.
//
// With -json and no -head it instead prints the base set's summary, the
// form of results/seed.json. Run from the bench directory:
//
//	go run ./compare -base base.jsonl -head head.jsonl -claim req_per_s@mail-dvp
//	go run ./compare -base runs.jsonl -json > results/seed.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"zombiessd/bench/result"
)

// side is one commit's untraced runs of one workload, in recorded order.
type side []result.Record

func (s side) values(metric string) []float64 {
	out := make([]float64, len(s))
	for i, r := range s {
		out[i] = r.Result.Metrics[metric].Value
	}
	return out
}

// failShare is the share of attempted operations that failed.
func (s side) failShare() float64 {
	var att, failed int64
	for _, r := range s {
		att += r.Result.Attempted
		failed += r.Result.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "result set of the base commit")
	headPath := fs.String("head", "", "result set of the head commit")
	asJSON := fs.Bool("json", false, "print the base set's summary as JSON instead of comparing")
	var claims []string
	fs.Func("claim", "metric@workload the head claims to improve (repeatable)", func(s string) error {
		if !strings.Contains(s, "@") {
			return fmt.Errorf("want metric@workload, got %q", s)
		}
		claims = append(claims, s)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || (*headPath == "") == !*asJSON {
		fmt.Fprintln(stderr, "compare: usage: compare -base set (-head set [-claim metric@workload]... | -json)")
		return 2
	}
	spec, err := result.LoadSpec("../BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	baseRecs, err := result.Load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *asJSON {
		return printSummary(stdout, stderr, spec, baseRecs)
	}
	headRecs, err := result.Load(*headPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base, head := untraced(baseRecs), untraced(headRecs)
	bad := false
	for _, c := range claims {
		metric, workload, _ := strings.Cut(c, "@")
		m, ok := findMetric(spec, metric)
		if !ok || len(base[workload]) == 0 || len(head[workload]) == 0 {
			fmt.Fprintf(stderr, "compare: claim %s names no metric or workload with runs on both sides\n", c)
			return 2
		}
		ok = judgeClaim(stdout, m, workload, base[workload], head[workload])
		bad = bad || !ok
	}
	for _, w := range spec.Workloads {
		b, h := base[w.Name], head[w.Name]
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(stdout, "%s: no runs on one side, not compared\n", w.Name)
			continue
		}
		if len(b) != len(h) {
			fmt.Fprintf(stdout, "%s: %d base runs but %d head runs; pairs use the first %d\n",
				w.Name, len(b), len(h), min(len(b), len(h)))
		}
		fmt.Fprintf(stdout, "%s  (%d base, %d head runs; failed %.4g%% vs %.4g%%)\n",
			w.Name, len(b), len(h), 100*b.failShare(), 100*h.failShare())
		if h.failShare() > b.failShare() {
			fmt.Fprintln(stdout, "  MORE FAILED: head fails a larger share of attempted operations")
			bad = true
		}
		for _, m := range spec.EndToEnd {
			verdict, flagged := judge(m, b, h)
			bad = bad || flagged
			bq1, bmed, bq3 := result.Quartiles(b.values(m.Name))
			hq1, hmed, hq3 := result.Quartiles(h.values(m.Name))
			fmt.Fprintf(stdout, "  %-22s base %12.6g [%.6g, %.6g]  head %12.6g [%.6g, %.6g] %-10s %+7.2f%%  %s\n",
				m.Name, bmed, bq1, bq3, hmed, hq1, hq3, m.Unit, 100*rel(bmed, hmed), verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

func findMetric(s *result.Spec, name string) (result.Metric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return result.Metric{}, false
}

// untraced groups the untraced runs of a result set by workload.
func untraced(recs []result.Record) map[string]side {
	out := map[string]side{}
	for _, r := range recs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func rel(base, head float64) float64 {
	if base == 0 {
		return 0
	}
	return (head - base) / base
}

// worse is how much worse head is than base, as a share of base; negative
// when head is better.
func worse(m result.Metric, base, head float64) float64 {
	if m.Better == "higher" {
		return -rel(base, head)
	}
	return rel(base, head)
}

// judge returns the verdict for one metric on one workload, and whether
// it is a regression.
func judge(m result.Metric, base, head side) (string, bool) {
	if strings.HasPrefix(m.Name, "sim_") {
		return judgeExact(m.Name, base, head)
	}
	b, h := base.values(m.Name), head.values(m.Name)
	_, bmed, _ := result.Quartiles(b)
	_, hmed, _ := result.Quartiles(h)
	spread := math.Max(iqrShare(b), iqrShare(h))
	w := worse(m, bmed, hmed)
	switch {
	case spread > m.Bound && everyBetter(m, b, h):
		return "better in every run", false
	case spread > m.Bound:
		return fmt.Sprintf("unresolved: spread %.1f%% exceeds bound %.0f%%", 100*spread, 100*m.Bound), false
	case w > m.Bound:
		return fmt.Sprintf("WORSE beyond bound %.0f%%", 100*m.Bound), true
	default:
		return fmt.Sprintf("within bound %.0f%%", 100*m.Bound), false
	}
}

// judgeExact compares a simulated result run by run on every seed both
// sides ran: a deterministic model must reproduce it exactly.
func judgeExact(metric string, base, head side) (string, bool) {
	want := map[int64]float64{}
	for _, r := range base {
		want[r.Seed] = r.Result.Metrics[metric].Value
	}
	compared := 0
	for _, r := range head {
		v, ok := want[r.Seed]
		if !ok {
			continue
		}
		compared++
		if r.Result.Metrics[metric].Value != v {
			return fmt.Sprintf("CHANGED on seed %d: simulated results must repeat exactly", r.Seed), true
		}
	}
	if compared == 0 {
		return "not compared: no seed ran on both sides", false
	}
	return "same", false
}

// iqrShare is the interquartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	q1, med, q3 := result.Quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func everyBetter(m result.Metric, b, h []float64) bool {
	for _, x := range b {
		for _, y := range h {
			if worse(m, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// judgeClaim prints whether head's claimed gain on metric m holds.
func judgeClaim(w io.Writer, m result.Metric, workload string, base, head side) bool {
	b, h := base.values(m.Name), head.values(m.Name)
	pairs := min(len(b), len(h))
	wins := 0
	for i := 0; i < pairs; i++ {
		if worse(m, b[i], h[i]) < 0 {
			wins++
		}
	}
	bq1, bmed, bq3 := result.Quartiles(b)
	_, hmed, _ := result.Quartiles(h)
	var why []string
	if wins*10 < 9*pairs {
		why = append(why, fmt.Sprintf("head wins %d of %d pairs, under 9 in 10", wins, pairs))
	}
	if math.Abs(hmed-bmed) <= bq3-bq1 {
		why = append(why, "the medians differ by no more than the base's interquartile range")
	}
	if head.failShare() > base.failShare() {
		why = append(why, "head fails more operations")
	}
	verdict := "HOLDS"
	if len(why) > 0 {
		verdict = "NOT MET: " + strings.Join(why, "; ")
	}
	fmt.Fprintf(w, "claim %s@%s: base median %.6g, head median %.6g (%+.2f%%), base IQR %.6g, wins %d/%d: %s\n",
		m.Name, workload, bmed, hmed, 100*rel(bmed, hmed), bq3-bq1, wins, pairs, verdict)
	return len(why) == 0
}

type quartiles struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// printSummary prints the runs of a result set with each workload's
// median and quartiles per end-to-end metric, and the per-layer metrics of
// its last traced run per workload.
func printSummary(stdout, stderr io.Writer, spec *result.Spec, recs []result.Record) int {
	summary := map[string]map[string]quartiles{}
	for w, s := range untraced(recs) {
		summary[w] = map[string]quartiles{}
		for _, m := range spec.EndToEnd {
			q1, med, q3 := result.Quartiles(s.values(m.Name))
			summary[w][m.Name] = quartiles{Unit: m.Unit, Runs: len(s), Median: med, Q1: q1, Q3: q3}
		}
	}
	layers := map[string]map[string]result.Value{}
	for _, r := range recs {
		if r.Trace {
			layers[r.Workload] = r.Result.Metrics
		}
	}
	data, err := json.MarshalIndent(struct {
		Summary map[string]map[string]quartiles    `json:"summary"`
		Layers  map[string]map[string]result.Value `json:"layers,omitempty"`
		Runs    []result.Record                    `json:"runs"`
	}{summary, layers, recs}, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
