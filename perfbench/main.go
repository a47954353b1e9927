// Command perfbench is the repository's benchmark: it runs one workload of
// the privacy pipelines end to end through their public entry points, checks
// the outputs, and prints the metrics named in BENCHMARK.json. Run it from
// the repository root, which holds BENCHMARK.json:
//
//	bash perfbench/run.sh --workload design-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload with spans around each layer's public calls and prints the
// per-layer metrics instead, writing the spans to .bench_build/spans/.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check exits
// with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// setupRepeats is how many times a workload sets up in an untraced run; the
// reported setup_s is the median.
const setupRepeats = 3

// result collects what a run measured and checked.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	correct           bool
	notes             []string
	spans             *tracer
	setups            int
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// note records a line for standard error.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		r.note("failed: "+format, args...)
	}
}

// wrong records a failed correctness check.
func (r *result) wrong(format string, args ...any) {
	r.correct = false
	r.note("check failed: "+format, args...)
}

// timeSetup runs setup r.setups times, tearing down between repeats outside
// the timing, and records the median as setup_s. The last set-up stays up.
func (r *result) timeSetup(setup func() error, teardown func()) error {
	var times []float64
	for i := 0; i < r.setups; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times))
	return nil
}

// gcSample is a reading of the collector's counters.
type gcSample struct {
	cycles          uint32
	pauseNs         uint64
	gcCPU, totalCPU float64
}

// gcDelta is the collector's work between two readings.
type gcDelta struct{ cycles, pauseMs, cpuFrac float64 }

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

func (s gcSample) since(before gcSample) gcDelta {
	d := gcDelta{cycles: float64(s.cycles - before.cycles), pauseMs: float64(s.pauseNs-before.pauseNs) / 1e6}
	if total := s.totalCPU - before.totalCPU; total > 0 {
		d.cpuFrac = (s.gcCPU - before.gcCPU) / total
	}
	return d
}

// metricSpec is one metric as BENCHMARK.json names it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metrics it must print, with their units.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// heldOutSeed is kept out of tuning: a later claim of a gain must also hold
// on it.
const heldOutSeed = 1009

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: design-cold, ingest-steady or ingest-alerting")
	flag.Int64Var(&cfg.seed, "seed", 1, fmt.Sprintf("input seed (%d is the held-out seed)", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 runs with per-layer spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	spec, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s commit=%s held-out-seed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit(), heldOutSeed)

	res := &result{metrics: make(map[string]float64), correct: true, setups: setupRepeats}
	if cfg.trace {
		res.setups = 1
	}
	ctx := context.Background()
	switch cfg.workload {
	case "design-cold":
		err = runDesign(ctx, cfg, res)
	case "ingest-steady":
		err = runIngest(ctx, ingestSteady, cfg, res)
	case "ingest-alerting":
		err = runIngest(ctx, ingestAlerting, cfg, res)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	if err != nil {
		return fmt.Errorf("%s: %w (attempted %d, failed %d)", cfg.workload, err, res.attempted, res.failed)
	}

	out := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue)}
	for _, m := range want {
		// A layer the workload does not reach did no work and reads 0.
		v, ok := res.metrics[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-40s %16.6f %s\n", m.Name, v, m.Unit)
	}
	if res.spans != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		header := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "nproc": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit()}
		if err := res.spans.dump(path, header); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Println("# spans written to", path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed (attempted %d, failed %d)\n", cfg.workload, res.attempted, res.failed)
		os.Exit(1)
	}
	return nil
}

// commit names the source revision the benchmark was built from, as the
// build script passes it in; "unknown" outside a git checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
