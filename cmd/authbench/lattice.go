package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/policy"
)

// latticeCell is one (workload, policy) measurement in the lattice record.
type latticeCell struct {
	Policy     string  `json:"policy"`
	IPC        float64 `json:"ipc"`
	Normalized float64 `json:"normalized_ipc"`
}

// latticeRow is one workload's trip across the lattice.
type latticeRow struct {
	Workload    string        `json:"workload"`
	BaselineIPC float64       `json:"baseline_ipc"`
	Cells       []latticeCell `json:"cells"`
}

// latticeRecord is the machine-readable output of the lattice experiment.
type latticeRecord struct {
	Schema       string             `json:"schema"`
	WarmupInsts  uint64             `json:"warmup_insts"`
	MeasureInsts uint64             `json:"measure_insts"`
	Policies     []string           `json:"policies"`
	Workloads    []string           `json:"workloads"`
	Rows         []latticeRow       `json:"rows"`
	MeanIPC      map[string]float64 `json:"mean_normalized_ipc"`
	// BaselineSims counts baseline simulations actually executed: with the
	// memo working it equals len(Workloads), i.e. a k-policy sweep costs
	// k+1 simulations per workload, not 2k.
	BaselineSims int64 `json:"baseline_sims"`
}

// runLatticeExperiment sweeps every single- and two-gate composition of the
// control-point lattice (policy.Lattice, 15 points — the canonical schemes
// plus compositions no legacy enum value names) and writes the normalized-IPC
// record to path. A fresh memo isolates the baseline-memo evidence from the
// memo the other experiments share.
func runLatticeExperiment(w io.Writer, p experiments.Params, path string) error {
	points := policy.Lattice()
	p.Memo = &harness.Runner{}

	sw, err := experiments.RunSweep("lattice sweep: all 1- and 2-gate compositions", p, points, nil)
	if err != nil {
		return err
	}
	sw.Render(w)

	rec := latticeRecord{
		Schema:       "authbench/lattice/v1",
		WarmupInsts:  p.Warmup,
		MeasureInsts: p.Measure,
		MeanIPC:      map[string]float64{},
		BaselineSims: p.Memo.BaselineSims(),
	}
	for _, pt := range points {
		rec.Policies = append(rec.Policies, pt.String())
		rec.MeanIPC[pt.String()] = sw.MeanNormalized(pt)
	}
	for _, row := range sw.Rows {
		lr := latticeRow{Workload: row.Workload, BaselineIPC: row.BaselineIPC}
		for _, pt := range points {
			lr.Cells = append(lr.Cells, latticeCell{
				Policy:     pt.String(),
				IPC:        row.IPC[pt],
				Normalized: row.Normalized(pt),
			})
		}
		rec.Rows = append(rec.Rows, lr)
		rec.Workloads = append(rec.Workloads, row.Workload)
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nlattice: %d policies x %d workloads, %d baseline sims (memoized k+1), record: %s\n",
		len(points), len(p.Workloads), rec.BaselineSims, path)
	return nil
}
