package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"zombiessd/bench/result"
	"zombiessd/internal/telemetry"
)

// smokeRequests is the trace length the tests replay each workload at:
// long enough for GC, pool revivals, CMT misses and admission shedding to
// happen, short enough for the whole file to run in seconds.
const smokeRequests = 40_000

var (
	repsMu sync.Mutex
	reps   = map[string]*repResult{}
)

// smokeRep returns one in-process repetition of a workload at smoke
// scale, shared between the tests that ask for the same one.
func smokeRep(t *testing.T, workload string, seed int64, traced bool) *repResult {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%v", workload, seed, traced)
	repsMu.Lock()
	defer repsMu.Unlock()
	if r, ok := reps[key]; ok {
		return r
	}
	w, err := workloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRep(w, seed, smokeRequests, traced, "")
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	reps[key] = r
	return r
}

func TestEveryWorkloadPassesTheOracle(t *testing.T) {
	for _, w := range workloads {
		r := smokeRep(t, w.name, 1, false)
		if r.Violations != 0 {
			t.Errorf("%s: %d pages read back wrong; first: %s", w.name, r.Violations, r.FirstViolation)
		}
		if r.Requests != smokeRequests {
			t.Errorf("%s: replayed %d requests, want %d", w.name, r.Requests, smokeRequests)
		}
	}
}

// TestResultLinesCarryEveryMetric prints each workload's untraced and
// traced results and checks that every metric BENCHMARK.json lists is
// printed by name with its unit, and that the last line is the JSON result
// object with exactly its four keys, surviving a round trip.
func TestResultLinesCarryEveryMetric(t *testing.T) {
	for _, w := range workloads {
		untracedRep := smokeRep(t, w.name, 1, false)
		traced := smokeRep(t, w.name, 1, true)
		traced.Layers["bench.trace_overhead_pct"] = 0
		for _, tr := range []*repResult{nil, traced} {
			line, problems := summarize([]*repResult{untracedRep}, tr)
			if !line.Correct || len(problems) > 0 {
				t.Errorf("%s: result wrong: %v", w.name, problems)
			}
			want := endToEnd
			if tr != nil {
				want = perLayer
			}
			var buf bytes.Buffer
			printResult(&buf, w, options{seed: 1}, []*repResult{untracedRep}, tr, line)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			for _, m := range want {
				re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.name) + `\s+\S+ ` + regexp.QuoteMeta(m.unit) + `(\s|$)`)
				if !re.MatchString(buf.String()) {
					t.Errorf("%s: metric %s is not printed with unit %s", w.name, m.name, m.unit)
				}
			}
			last := []byte(lines[len(lines)-1])
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(last, &keys); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if got := sortedKeys(keys); strings.Join(got, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("%s: result keys %v", w.name, got)
			}
			var back result.Line
			if err := json.Unmarshal(last, &back); err != nil {
				t.Fatal(err)
			}
			again, _ := json.Marshal(back)
			if !bytes.Equal(again, last) {
				t.Errorf("%s: result line does not round-trip:\n%s\n%s", w.name, last, again)
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s: %d metrics printed, want %d", w.name, len(back.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := back.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, m.name, v, m.unit)
				}
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkFileMatchesTheProgram checks BENCHMARK.json against the
// workloads and metrics this program measures, and the naming rules both
// follow: every per-layer metric must name an end-to-end metric and
// workloads that exist.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(keys), ","); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("BENCHMARK.json keys: %s", got)
	}
	b, err := result.LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	known := map[string]bool{}
	for i, w := range b.Workloads {
		checkName(w.Name)
		known[w.Name] = true
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), want %q with a one-line why", i, w.Name, w.Why, workloads[i].name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	ends := map[string]bool{}
	var setupBound, maxOther float64
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		ends[m.Name] = true
		p := endToEnd[i]
		if m.Name != p.name || m.Unit != p.unit {
			t.Errorf("end-to-end %d: file %s in %s, program %s in %s", i, m.Name, m.Unit, p.name, p.unit)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit %q, direction %q or bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit {
			t.Errorf("per-layer %d: file %s in %s, program %s in %s", i, m.Name, m.Unit, p.name, p.unit)
		}
		if layer, _, ok := strings.Cut(m.Name, "."); !ok || layer == "" || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %s: want <layer>.<metric> and a valid unit, got unit %q", m.Name, m.Unit)
		}
		if !ends[p.moves] {
			t.Errorf("per-layer %s moves %q, which is no end-to-end metric", p.name, p.moves)
		}
		for _, w := range p.onWorkloads {
			if !known[w] {
				t.Errorf("per-layer %s names unknown workload %q", p.name, w)
			}
		}
	}
	if len(phaseNames) != int(telemetry.NumPhases) {
		t.Errorf("%d phase names for %d telemetry phases", len(phaseNames), telemetry.NumPhases)
	}
}

// TestTracedRepetitionMatchesUntraced: timing every device call from
// outside must not change a single simulated result, and the traced
// repetition must produce every per-layer metric and a valid trace.
func TestTracedRepetitionMatchesUntraced(t *testing.T) {
	var names []string
	var spans [][]span
	for _, w := range workloads {
		plain, traced := smokeRep(t, w.name, 1, false), smokeRep(t, w.name, 1, true)
		if plain.Digest != traced.Digest || fmt.Sprint(plain.Sim) != fmt.Sprint(traced.Sim) {
			t.Errorf("%s: traced results %v differ from untraced %v", w.name, traced.Sim, plain.Sim)
		}
		for _, m := range perLayer {
			if _, ok := traced.Layers[m.name]; !ok && m.name != "bench.trace_overhead_pct" {
				t.Errorf("%s: traced repetition lacks %s", w.name, m.name)
			}
		}
		var calls int
		for _, s := range traced.Spans {
			if s.Cat == "device" {
				calls++
				if s.Args["parent_id"] == nil {
					t.Errorf("%s: device span %v has no parent", w.name, s)
				}
			}
		}
		if want := smokeRequests / sampleEvery; calls < want {
			t.Errorf("%s: %d device spans, want at least %d", w.name, calls, want)
		}
		names = append(names, w.name)
		spans = append(spans, traced.Spans)
	}
	data, err := traceFile(names, spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTraceJSON(data); err != nil {
		t.Error(err)
	}
}

// TestTelemetryLeavesResultsUnchanged: mail-telemetry differs from
// mail-dvp only by observing, so every simulated result must match.
func TestTelemetryLeavesResultsUnchanged(t *testing.T) {
	dvp, tel := smokeRep(t, "mail-dvp", 1, false), smokeRep(t, "mail-telemetry", 1, false)
	if dvp.Digest != tel.Digest || fmt.Sprint(dvp.Sim) != fmt.Sprint(tel.Sim) {
		t.Errorf("telemetry changed the results: %v vs %v", tel.Sim, dvp.Sim)
	}
}

// TestSeedsAreDeterministic: a seed repeats its simulated results exactly
// in a fresh replay, and the held-out seed 2 gives different ones.
func TestSeedsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		first := smokeRep(t, w.name, 1, false)
		again, err := runRep(w, 1, smokeRequests, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != first.Digest {
			t.Errorf("%s: seed 1 does not repeat: %v vs %v", w.name, again.Sim, first.Sim)
		}
		if other := smokeRep(t, w.name, 2, false); fmt.Sprint(other.Sim) == fmt.Sprint(first.Sim) {
			t.Errorf("%s: seeds 1 and 2 give identical results %v", w.name, other.Sim)
		}
	}
}
