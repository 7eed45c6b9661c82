// Command bench is the repository benchmark. It replays paper-length
// workloads (4M requests each) through the public sim API, one child
// process per repetition, checks every replay against a read-back oracle,
// and prints each workload's end-to-end metrics by name and unit; with
// -trace 1 it adds one timed-from-outside repetition and prints the
// per-layer metrics instead. The last line of output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from this directory (README.md has the full set of commands):
//
//	go run . -workload mail-dvp -seed 1 -seconds 20 -trace 0
//	go run . -trace 1 -out out/
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"zombiessd/bench/result"
	"zombiessd/internal/experiments"
	"zombiessd/internal/telemetry"
)

// minReps is the least number of untraced repetitions per workload: one
// replay in five on a shared 2-core host runs about 20% slow, and the
// median of three absorbs one such outlier.
const minReps = 3

type options struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
	record  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := fs.Int64("seed", 1, "workload seed; seed 2 is held out for checking claims")
	seconds := fs.Float64("seconds", 25, "measuring time per workload: untraced repetitions continue while another is expected to fit, at least 3")
	traceFlag := fs.Int("trace", 0, "1 adds a traced repetition and prints per-layer metrics instead of end-to-end ones")
	out := fs.String("out", "", "traced runs: directory to write layers.json, trace.json and <workload>.pprof to")
	record := fs.String("record", "", "append each workload's result line to this result set (the input of ./compare)")
	child := fs.Bool("child", false, "run one repetition in this process and print it as JSON (used by the parent process)")
	profile := fs.String("profile", "", "with -child and -trace 1: write a CPU profile of the replay here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out dir] [-record file]")
		return 2
	}
	specs := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		specs = []*workloadSpec{w}
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, out: *out, record: *record}

	if *child {
		r, err := runRep(specs[0], o.seed, experiments.PaperRequests, o.traced, *profile)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", specs[0].name, err)
			return 1
		}
		return 0
	}
	if err := runParent(specs, o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runParent benchmarks each workload in turn and fails when any output
// was wrong.
func runParent(specs []*workloadSpec, o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}
	var names []string
	var spans [][]span
	layers := map[string]map[string]result.Value{}
	var wrong []string
	for _, w := range specs {
		reps, err := measure(exe, w, o, stderr)
		if err != nil {
			return err
		}
		var traced *repResult
		if o.traced {
			profile := ""
			if o.out != "" {
				profile = filepath.Join(o.out, w.name+".pprof")
			}
			if traced, err = spawn(exe, w, o, true, profile, stderr); err != nil {
				return err
			}
			base := median(reps, func(r *repResult) float64 { return r.RunS })
			traced.Layers["bench.trace_overhead_pct"] = 100 * (traced.RunS - base) / base
		}
		line, problems := summarize(reps, traced)
		printResult(stdout, w, o, reps, traced, line)
		for _, p := range problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
		}
		if !line.Correct {
			wrong = append(wrong, w.name)
		}
		if o.record != "" {
			rec := result.Record{Workload: w.name, Seed: o.seed, Trace: o.traced, Result: line}
			if err := result.Append(o.record, rec); err != nil {
				return err
			}
		}
		if traced != nil {
			names = append(names, w.name)
			spans = append(spans, traced.Spans)
			layers[w.name] = line.Metrics
		}
	}
	if o.traced && o.out != "" {
		if err := writeTraceOutputs(o.out, names, spans, layers); err != nil {
			return err
		}
	}
	if len(wrong) > 0 {
		return fmt.Errorf("bench: wrong output on %s", strings.Join(wrong, ", "))
	}
	return nil
}

// measure runs untraced repetitions of w, each in a child process of its
// own, until another one is not expected to fit in the seconds budget.
func measure(exe string, w *workloadSpec, o options, stderr io.Writer) ([]*repResult, error) {
	var reps []*repResult
	start := time.Now()
	for {
		n := len(reps)
		if n >= minReps && time.Since(start).Seconds()*float64(n+1)/float64(n) > o.seconds {
			return reps, nil
		}
		r, err := spawn(exe, w, o, false, "", stderr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
}

// spawn runs one repetition of w in a child process, waits for it, and
// returns its result with the child's peak resident set filled in.
func spawn(exe string, w *workloadSpec, o options, traced bool, profile string, stderr io.Writer) (*repResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-trace", trace, "-profile", profile)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s repetition: %w", w.name, err)
	}
	var r repResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("bench: %s repetition output: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return &r, nil
}

// hostMetrics compute the host-side end-to-end metrics of one repetition.
var hostMetrics = map[string]func(*repResult) float64{
	"setup_s":             func(r *repResult) float64 { return r.GenS + r.NewDeviceS },
	"req_per_s":           func(r *repResult) float64 { return float64(r.Requests) / r.RunS },
	"alloc_bytes_per_req": func(r *repResult) float64 { return float64(r.AllocBytes) / float64(r.Requests) },
	"allocs_per_req":      func(r *repResult) float64 { return float64(r.Mallocs) / float64(r.Requests) },
	"peak_rss_mb":         func(r *repResult) float64 { return r.PeakRSSMB },
}

// summarize turns the untraced repetitions (and the traced one, if any)
// into a result line: host metrics are medians over the repetitions, sim_*
// metrics must agree exactly across all of them. A traced line carries the
// per-layer metrics instead of the end-to-end ones.
func summarize(reps []*repResult, traced *repResult) (result.Line, []string) {
	line := result.Line{Correct: true, Metrics: map[string]result.Value{}}
	var problems []string
	all := reps
	if traced != nil {
		all = append(append([]*repResult(nil), reps...), traced)
	}
	for i, r := range all {
		line.Attempted += r.Requests
		line.Failed += r.Violations
		if r.Violations > 0 {
			line.Correct = false
			problems = append(problems, fmt.Sprintf("repetition %d: %d pages read back wrong; first: %s", i, r.Violations, r.FirstViolation))
		}
		if r.Digest != all[0].Digest {
			line.Correct = false
			problems = append(problems, fmt.Sprintf("repetition %d: simulated results differ from repetition 0", i))
		}
	}
	if traced != nil {
		for _, m := range perLayer {
			line.Metrics[m.name] = result.Value{Value: traced.Layers[m.name], Unit: m.unit}
		}
		return line, problems
	}
	for _, m := range endToEnd {
		v := reps[0].Sim[m.name]
		if f, ok := hostMetrics[m.name]; ok {
			v = median(reps, f)
		}
		line.Metrics[m.name] = result.Value{Value: v, Unit: m.unit}
	}
	return line, problems
}

func median(reps []*repResult, f func(*repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	_, med, _ := result.Quartiles(xs)
	return med
}

// printResult prints a workload's metrics one per line, then its result
// line as JSON.
func printResult(w io.Writer, spec *workloadSpec, o options, reps []*repResult, traced *repResult, line result.Line) {
	kind := "end-to-end metrics, median of"
	if traced != nil {
		kind = "per-layer metrics of 1 traced repetition after"
	}
	fmt.Fprintf(w, "%s: seed %d, %d requests; %s %d untraced repetitions\n",
		spec.name, o.seed, reps[0].Requests, kind, len(reps))
	list := endToEnd
	if traced != nil {
		list = perLayer
	}
	for _, m := range list {
		v := line.Metrics[m.name]
		note := ""
		if m.name == "sim_read_p99_us" {
			note = fmt.Sprintf("  (%d read samples)", reps[0].ReadSamples)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s%s\n", m.name, v.Value, v.Unit, note)
	}
	data, _ := json.Marshal(line) // a map of finite floats always marshals
	fmt.Fprintf(w, "%s\n", data)
}

// writeTraceOutputs writes layers.json and trace.json for the traced
// workloads; trace.json must pass the telemetry trace validator.
func writeTraceOutputs(dir string, names []string, spans [][]span, layers map[string]map[string]result.Value) error {
	data, err := traceFile(names, spans)
	if err != nil {
		return err
	}
	if err := telemetry.ValidateTraceJSON(data); err != nil {
		return fmt.Errorf("bench: trace.json: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644); err != nil {
		return err
	}
	data, err = json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}
