package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
)

// summary is what -runs prints and -out writes: each end-to-end
// metric's median and quartiles per workload, and, with -trace 1, one
// traced run's per-layer metrics.
type summary struct {
	Go         string                      `json:"go"`
	NumCPU     int                         `json:"nproc"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Seed       uint64                      `json:"seed"`
	Seconds    float64                     `json:"seconds"`
	Runs       int                         `json:"runs"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Corrupt   int               `json:"corrupt"`
	Metrics   map[string]*stat  `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// spread the benchmark's acceptance is judged by.
func quartiles(values []float64) (q1, median, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runMany runs every selected workload runs times, forward order on
// even repetitions and reversed on odd ones, so no workload always runs
// first or last.
func runMany(spec *benchSpec, only string, seed uint64, lim limit, runs int, traced bool, outPath, basePath string, stdout, stderr io.Writer) int {
	ws := workloads
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	sum := &summary{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: lim.seconds, Runs: runs, Workloads: map[string]*workloadSummary{},
	}
	for _, w := range ws {
		sum.Workloads[w.name] = &workloadSummary{Metrics: map[string]*stat{}}
	}
	code := 0
	for rep := range runs {
		order := slices.Clone(ws)
		if rep%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, base, err := measure(spec, w, seed, lim, false, "")
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			s := sum.Workloads[w.name]
			s.Attempted += res.Attempted
			s.Failed += res.Failed
			if !res.Correct {
				s.Corrupt++
				code = 1
			}
			metrics := opTimes(base)
			maps.Copy(metrics, res.Metrics)
			for name, m := range metrics {
				if s.Metrics[name] == nil {
					s.Metrics[name] = &stat{Unit: m.Unit}
				}
				s.Metrics[name].Values = append(s.Metrics[name].Values, m.Value)
			}
			fmt.Fprintf(stderr, "run %d %s done\n", rep+1, w.name)
		}
	}
	for _, w := range ws {
		s := sum.Workloads[w.name]
		if traced {
			res, _, err := measure(spec, w, seed, lim, true, "")
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			s.Layers = res.Metrics
		}
		fmt.Fprintf(stdout, "%s (%d runs, %d ops, %d failed)\n", w.name, runs, s.Attempted, s.Failed)
		for _, name := range reported(spec) {
			st := s.Metrics[name]
			st.Q1, st.Median, st.Q3 = quartiles(st.Values)
			fmt.Fprintf(stdout, "  %-20s %12.4f %-6s  q1 %.4f  q3 %.4f  spread %.1f%%\n",
				name, st.Median, st.Unit, st.Q1, st.Q3, 100*ratio(st.Q3-st.Q1, st.Median))
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(sum, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if basePath != "" {
		regressed, err := compareTo(spec, sum, basePath, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			code = 1
		}
	}
	return code
}

// reported lists the metrics a -runs summary holds: the gated
// end-to-end metrics, then the ungated latency.
func reported(spec *benchSpec) []string {
	var names []string
	for _, ms := range spec.EndToEnd {
		names = append(names, ms.Name)
	}
	return append(names, "op.p50_ms")
}

// latencyBand is how far op.p50_ms may move before compareTo flags it.
// A flag does not fail the comparison: on a shared host the latency
// median of a run moves by up to 2x with other tenants' load.
const latencyBand = 0.25

// compareTo fails every workload metric whose median is worse than the
// baseline's by more than its BENCHMARK.json bound, and flags a latency
// median worse by more than latencyBand.
func compareTo(spec *benchSpec, cur *summary, basePath string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(basePath)
	if err != nil {
		return false, err
	}
	var base summary
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("%s: %w", basePath, err)
	}
	regressed := false
	for name, ws := range cur.Workloads {
		bs := base.Workloads[name]
		if bs == nil {
			continue
		}
		for _, ms := range append(slices.Clone(spec.EndToEnd), metricSpec{Name: "op.p50_ms", Better: "lower", Bound: latencyBand}) {
			c, b := ws.Metrics[ms.Name], bs.Metrics[ms.Name]
			if c == nil || b == nil || b.Median == 0 {
				continue
			}
			change := c.Median/b.Median - 1
			worse := change
			if ms.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > ms.Bound && ms.Name == "op.p50_ms":
				verdict = "slower (flagged, not gated)"
			case worse > ms.Bound:
				verdict = "REGRESSION"
				regressed = true
			case -worse > ms.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-12s %-20s %12.4f -> %12.4f  %+6.1f%%  (bound %.0f%%) %s\n",
				name, ms.Name, b.Median, c.Median, 100*change, 100*ms.Bound, verdict)
		}
	}
	return regressed, nil
}
