package main

import (
	"io"
	"strings"
	"testing"

	"zombiessd/bench/result"
)

// runs is one side's runs of metric m on seeds 1, 2, ….
func runs(m string, vals ...float64) side {
	var s side
	for i, v := range vals {
		s = append(s, result.Record{Workload: "w", Seed: int64(i + 1), Result: result.Line{
			Correct: true, Attempted: 100, Metrics: map[string]result.Value{m: {Value: v}}}})
	}
	return s
}

func TestJudge(t *testing.T) {
	rps := result.Metric{Name: "req_per_s", Better: "higher", Bound: 0.10}
	lat := result.Metric{Name: "sim_mean_latency_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name       string
		m          result.Metric
		base, head []float64
		want       string
		regression bool
	}{
		{"within bound", rps, []float64{100, 101, 99, 100}, []float64{98, 99, 97, 98}, "within bound", false},
		{"worse", rps, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, "WORSE", true},
		{"unresolved", rps, []float64{100, 150, 60, 100}, []float64{95, 140, 50, 90}, "unresolved", false},
		{"better in every run", rps, []float64{100, 150, 60, 100}, []float64{200, 250, 190, 210}, "better in every run", false},
		{"sim same", lat, []float64{5, 6}, []float64{5, 6}, "same", false},
		{"sim changed", lat, []float64{5, 6}, []float64{5, 6.5}, "CHANGED on seed 2", true},
	} {
		got, regression := judge(c.m, runs(c.m.Name, c.base...), runs(c.m.Name, c.head...))
		if !strings.HasPrefix(got, c.want) || regression != c.regression {
			t.Errorf("%s: verdict %q, regression %v; want %q, %v", c.name, got, regression, c.want, c.regression)
		}
	}
}

func TestClaimNeedsNineInTenAndMoreThanTheBaseSpread(t *testing.T) {
	rps := result.Metric{Name: "req_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	nineWins := []float64{110, 110, 110, 110, 110, 110, 110, 110, 110, 95}
	eightWins := []float64{110, 110, 110, 110, 110, 110, 110, 110, 95, 95}
	within := []float64{102, 103, 101, 102, 104, 100, 102, 103, 101, 102}
	if !judgeClaim(io.Discard, rps, "w", runs(rps.Name, base...), runs(rps.Name, nineWins...)) {
		t.Error("a gain winning 9 of 10 pairs by more than the base's spread was not accepted")
	}
	if judgeClaim(io.Discard, rps, "w", runs(rps.Name, base...), runs(rps.Name, eightWins...)) {
		t.Error("a gain winning 8 of 10 pairs was accepted")
	}
	if judgeClaim(io.Discard, rps, "w", runs(rps.Name, base...), runs(rps.Name, within...)) {
		t.Error("a gain inside the base's interquartile range was accepted")
	}
	failing := runs(rps.Name, nineWins...)
	failing[0].Result.Failed = 1
	if judgeClaim(io.Discard, rps, "w", runs(rps.Name, base...), failing) {
		t.Error("a gain was accepted although head failed more operations")
	}
}
