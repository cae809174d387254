// Command bench is the repository benchmark. It drives
// internal/blockstore — the layer under the dnastore facade — through
// five fixed-seed workloads with one closed-loop client, checks every
// returned block against a ground-truth model, and prints the metrics
// BENCHMARK.json names: end-to-end metrics by default, per-layer
// metrics from a traced run with -trace 1.
//
// Run it from the repository root through bench/run.sh, which builds it
// first:
//
//	bash bench/run.sh -workload point-hot -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads, the metrics, -runs, -compare and -spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

func main() {
	// One P: the stores run serially (Config.Workers = 1) and so does the
	// garbage collector. The benchmark gates serial work; on the 2-vCPU
	// reference machine two threads made point reads only ~8% faster,
	// and multi-core speedup is left unmeasured.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 0 a correct run, 1 a run whose outputs were wrong (the
// result is still printed), 2 a usage, setup or specification error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (all with -runs)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced run")
	spans := fs.String("spans", "", "traced runs: write spans and per-layer metrics to this file")
	runs := fs.Int("runs", 0, "repeat every workload N times in alternating order and summarize")
	out := fs.String("out", "", "with -runs: write the summary JSON to this file")
	compare := fs.String("compare", "", "with -runs: flag regressions against this summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	lim := limit{seconds: *seconds}
	if *runs > 0 {
		return runMany(spec, *name, *seed, lim, *runs, *trace == 1, *out, *compare, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, _, err := measure(spec, w, *seed, lim, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s returned wrong bytes without an error\n", w.name)
		return 1
	}
	return 0
}

// report is the result line the benchmark contract defines.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs one workload at full size and returns its report with
// the untraced run behind it. Untraced, the report holds the end-to-end
// metrics, setup_s and heap_mb taken over setupStores stores. Traced, an
// untraced and a traced pass of the same seed split the run's time,
// and the report holds the per-layer metrics.
func measure(spec *benchSpec, w *workload, seed uint64, lim limit, traced bool, spansPath string) (*report, *result, error) {
	if traced {
		lim.seconds /= 2
	}
	base, err := runOnce(w, seed, fullSizes, lim, false)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Attempted: base.attempted, Failed: base.failed, Correct: base.corrupt == 0}
	if !traced {
		if base.setup, base.heap, err = timeSetups(w, seed, fullSizes, setupSeconds); err != nil {
			return nil, nil, err
		}
		rep.Metrics = endToEnd(base)
		return rep, base, checkMetrics(spec.EndToEnd, rep.Metrics)
	}
	t, err := runOnce(w, seed, fullSizes, lim, true)
	if err != nil {
		return nil, nil, err
	}
	rep.Attempted += t.attempted
	rep.Failed += t.failed
	rep.Correct = rep.Correct && t.corrupt == 0
	rep.Metrics = perLayer(t, base)
	if spansPath != "" {
		if err := writeSpans(spansPath, w.name, seed, t, rep.Metrics); err != nil {
			return nil, nil, err
		}
	}
	return rep, base, checkMetrics(spec.PerLayer, rep.Metrics)
}

func writeSpans(path, workload string, seed uint64, r *result, layers map[string]metric) error {
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload,
		"seed":     seed,
		"spans":    r.tr.spans,
		"layers":   layers,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// specPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		return nil, fmt.Errorf("%s lists workloads %v, the benchmark runs %v", path, names, have)
	}
	return &s, nil
}

// checkMetrics fails unless the emitted metrics are exactly the listed
// ones, with the listed units.
func checkMetrics(want []metricSpec, got map[string]metric) error {
	var errs []string
	for _, ms := range want {
		m, ok := got[ms.Name]
		switch {
		case !ok:
			errs = append(errs, "missing "+ms.Name)
		case m.Unit != ms.Unit:
			errs = append(errs, fmt.Sprintf("%s has unit %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit))
		}
	}
	for name := range got {
		if !slices.ContainsFunc(want, func(ms metricSpec) bool { return ms.Name == name }) {
			errs = append(errs, "unlisted "+name)
		}
	}
	if len(errs) > 0 {
		slices.Sort(errs)
		return errors.New("metrics differ from BENCHMARK.json: " + strings.Join(errs, "; "))
	}
	return nil
}
