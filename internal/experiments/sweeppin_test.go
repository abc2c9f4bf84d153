package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"authpoint/internal/campaign"
	"authpoint/internal/harness"
)

// TestBenchSweepCyclesPinned re-runs the cells of `authbench -experiment
// bench` on one worker and requires every cell's simulated cycle count to
// equal the one recorded in BENCH_sweep.json, whose serial and parallel
// legs must agree with each other too. A simulator change that moves any
// cycle fails here; re-record the file deliberately with
//
//	go run ./cmd/authbench -experiment bench -json BENCH_sweep.json
func TestBenchSweepCyclesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("simulation-heavy; cycle identity does not depend on the race detector")
	}
	raw, err := os.ReadFile("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Experiments []struct {
			Name  string `json:"name"`
			Cells []struct {
				Workload  string `json:"workload"`
				Scheme    string `json:"scheme"`
				SimCycles uint64 `json:"sim_cycles"`
			} `json:"cells"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("parsing BENCH_sweep.json: %v", err)
	}
	want := map[string]uint64{}
	recorded := 0
	for _, e := range rec.Experiments {
		for _, c := range e.Cells {
			k := c.Workload + "/" + c.Scheme
			if w, ok := want[k]; ok && w != c.SimCycles {
				t.Fatalf("BENCH_sweep.json: %s records %d and %d cycles", k, w, c.SimCycles)
			}
			want[k] = c.SimCycles
			recorded++
		}
	}

	p := QuickParams()
	p.Sweep = campaign.Sweep{Parallelism: 1}
	p.Memo = &harness.Runner{}
	cells := 0
	p.OnCell = func(c CellResult) {
		k := c.Spec.Workload.Name + "/" + c.Spec.Config.ControlPoint().String()
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: not in BENCH_sweep.json", k)
		case c.Measurement.Result.Cycles != w:
			t.Errorf("%s: %d cycles, BENCH_sweep.json records %d", k, c.Measurement.Result.Cycles, w)
		}
		cells++
	}
	if _, err := RunSweep("bench sweep (quick subset)", p, PerfPolicies, nil); err != nil {
		t.Fatal(err)
	}
	if cells != len(want) {
		t.Fatalf("sweep ran %d cells, BENCH_sweep.json records %d", cells, len(want))
	}
	t.Logf("%d cells checked against %d recorded sim_cycles", cells, recorded)
}
