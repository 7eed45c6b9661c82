package result

import (
	"path/filepath"
	"testing"
)

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{4, 8, 15, 16, 23, 42}, 7, 15.5, 27.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestAppendThenLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for seed := int64(1); seed <= 2; seed++ {
		rec := Record{Workload: "w", Seed: seed, Result: Line{Correct: true, Attempted: 10,
			Metrics: map[string]Value{"m": {Value: float64(seed), Unit: "s"}}}}
		if err := Append(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Seed != 2 || recs[1].Result.Metrics["m"].Value != 2 {
		t.Errorf("loaded %+v", recs)
	}
}
