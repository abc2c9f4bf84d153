package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"authpoint/internal/experiments"
	"authpoint/internal/harness"
	"authpoint/internal/obs"
)

// benchCell is one sweep cell's cost in the -json record.
type benchCell struct {
	Workload string `json:"workload"`
	// Scheme is the cell's canonical control-point (policy) name; the JSON
	// key stays "scheme" for record compatibility.
	Scheme    string `json:"scheme"`
	SimCycles uint64 `json:"sim_cycles"` // total simulated cycles (warmup + measure)
	WallNs    int64  `json:"wall_ns"`
	// HostNsPerSimCycle is the practical simulator cost: host nanoseconds
	// spent per simulated core cycle (at the model's 1 GHz clock, host
	// cycles per simulated cycle up to the host's clock ratio).
	HostNsPerSimCycle float64 `json:"host_ns_per_sim_cycle"`
	// Cached marks baseline cells served from the memo without simulating.
	Cached bool `json:"cached,omitempty"`
	// Metrics is the cell's observability snapshot (present with -metrics;
	// memoized baseline cells repeat the shared snapshot).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// benchExperiment is one experiment's record.
type benchExperiment struct {
	Name         string      `json:"name"`
	WallNs       int64       `json:"wall_ns"`
	Cells        []benchCell `json:"cells,omitempty"`
	BaselineSims int64       `json:"baseline_sims,omitempty"`
}

// benchSweepComparison is the serial-vs-parallel headline of the `bench`
// experiment.
type benchSweepComparison struct {
	Workloads       []string `json:"workloads"`
	Schemes         int      `json:"schemes"`
	Cells           int      `json:"cells"`
	Parallelism     int      `json:"parallelism"`
	SerialWallNs    int64    `json:"serial_wall_ns"`
	ParallelWallNs  int64    `json:"parallel_wall_ns"`
	Speedup         float64  `json:"speedup"`
	OutputIdentical bool     `json:"output_identical"`
}

// benchRecord is the machine-readable output of -json.
type benchRecord struct {
	Schema      string                `json:"schema"`
	GOOS        string                `json:"goos"`
	GOARCH      string                `json:"goarch"`
	NumCPU      int                   `json:"num_cpu"`
	GoVersion   string                `json:"go_version"`
	Parallelism int                   `json:"parallelism"`
	Experiments []benchExperiment     `json:"experiments"`
	Sweep       *benchSweepComparison `json:"sweep,omitempty"`
}

// benchRecorder accumulates per-cell stats through the sweeps' per-cell hook
// and per-experiment wall times around each run.
type benchRecorder struct {
	record  benchRecord
	current *benchExperiment
	started time.Time
}

func newBenchRecorder(parallelism int) *benchRecorder {
	return &benchRecorder{record: benchRecord{
		Schema:      "authbench/sweep-bench/v1",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Parallelism: parallelism,
	}}
}

// observe records one finished sweep cell in the open experiment section.
func (b *benchRecorder) observe(c experiments.CellResult) {
	if b.current == nil {
		return
	}
	cell := benchCell{
		Workload:  c.Spec.Workload.Name,
		Scheme:    c.Spec.Config.ControlPoint().String(),
		SimCycles: c.Measurement.Result.Cycles,
		WallNs:    c.Wall.Nanoseconds(),
		Cached:    c.Cached,
		Metrics:   c.Measurement.Metrics,
	}
	if cell.SimCycles > 0 {
		cell.HostNsPerSimCycle = float64(cell.WallNs) / float64(cell.SimCycles)
	}
	b.current.Cells = append(b.current.Cells, cell)
}

// begin opens an experiment section; end closes it and stamps wall time.
func (b *benchRecorder) begin(name string) {
	b.record.Experiments = append(b.record.Experiments, benchExperiment{Name: name})
	b.current = &b.record.Experiments[len(b.record.Experiments)-1]
	b.started = time.Now()
}

func (b *benchRecorder) end(r *harness.Runner) {
	if b.current == nil {
		return
	}
	b.current.WallNs = time.Since(b.started).Nanoseconds()
	if r != nil {
		b.current.BaselineSims = r.BaselineSims()
	}
	b.current = nil
}

func (b *benchRecorder) write(path string) error {
	data, err := json.MarshalIndent(b.record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runBenchExperiment runs the quick sweep once on one worker and once on
// base's pool — fresh memos each, so the baseline memo cannot leak work
// between the legs — verifies the rendered output is byte-identical, and
// records the wall-clock speedup. The legs keep base's sweep (ledger, meter,
// metrics, per-cell hook) and change only its parallelism. This is the record
// committed as BENCH_sweep.json to start the perf trajectory.
func runBenchExperiment(rec *benchRecorder, base experiments.Params) error {
	p := experiments.QuickParams()
	p.Sweep, p.OnCell = base.Sweep, base.OnCell
	parallelism := base.Sweep.Parallelism
	var names []string
	for _, w := range p.Workloads {
		names = append(names, w.Name)
	}
	leg := func(name string, workers int) (time.Duration, string, error) {
		pp := p
		pp.Sweep.Parallelism = workers
		pp.Memo = &harness.Runner{}
		if rec != nil {
			rec.begin(name)
			defer rec.end(pp.Memo)
		}
		start := time.Now()
		// Both legs share one title: Render prints it, and the byte
		// comparison below must see identical tables.
		sw, err := experiments.RunSweep("bench sweep (quick subset)", pp, experiments.PerfPolicies, nil)
		if err != nil {
			return 0, "", err
		}
		var buf bytes.Buffer
		sw.Render(&buf)
		return time.Since(start), buf.String(), nil
	}

	serialWall, serialOut, err := leg("bench-sweep-serial", 1)
	if err != nil {
		return err
	}
	parallelWall, parallelOut, err := leg("bench-sweep-parallel", parallelism)
	if err != nil {
		return err
	}

	// The table is printed once — both legs rendered the same bytes, and
	// the comparison below enforces it.
	identical := serialOut == parallelOut
	fmt.Print(serialOut)
	speedup := 0.0
	if parallelWall > 0 {
		speedup = float64(serialWall) / float64(parallelWall)
	}
	cells := len(p.Workloads) * (len(experiments.PerfPolicies) + 1)
	fmt.Printf("\nsweep bench: %d cells, serial %v, parallel(%d workers) %v, speedup %.2fx, output identical: %v\n",
		cells, serialWall.Round(time.Millisecond), parallelism, parallelWall.Round(time.Millisecond), speedup, identical)
	if rec != nil {
		rec.record.Sweep = &benchSweepComparison{
			Workloads:       names,
			Schemes:         len(experiments.PerfPolicies),
			Cells:           cells,
			Parallelism:     parallelism,
			SerialWallNs:    serialWall.Nanoseconds(),
			ParallelWallNs:  parallelWall.Nanoseconds(),
			Speedup:         speedup,
			OutputIdentical: identical,
		}
	}
	if !identical {
		return fmt.Errorf("parallel sweep output differs from serial")
	}
	return nil
}
