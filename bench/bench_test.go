package main

import (
	"math"
	"testing"

	"dnastore/internal/blockstore"
)

// The tests run every workload at quickSizes for a fixed operation
// count, so they finish in seconds and their counters are exact.

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// counters are the deterministic outcomes of a fixed-count run.
type counters struct {
	attempted, failed, corrupt, read, written, strands, userBytes int
	costs                                                         blockstore.Costs
}

func countersOf(r *result) counters {
	return counters{r.attempted, r.failed, r.corrupt, r.read, r.written, r.strands, r.userBytes, r.costs}
}

func TestWorkloadsQuick(t *testing.T) {
	spec := loadTestSpec(t)
	lim := limit{ops: 3}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, err := runOnce(w, 7, quickSizes, lim, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMetrics(spec.EndToEnd, endToEnd(first)); err != nil {
				t.Error(err)
			}
			if first.corrupt != 0 {
				t.Errorf("%d blocks returned wrong bytes without an error", first.corrupt)
			}
			if first.read == 0 {
				t.Error("no block was read back")
			}
			again, err := runOnce(w, 7, quickSizes, lim, false)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := countersOf(first), countersOf(again); a != b {
				t.Errorf("same seed, different counters:\n%+v\n%+v", a, b)
			}
			traced, err := runOnce(w, 7, quickSizes, lim, true)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := countersOf(first), countersOf(traced); a != b {
				t.Errorf("tracing changed the work:\nuntraced %+v\ntraced   %+v", a, b)
			}
			layers := perLayer(traced, first)
			if err := checkMetrics(spec.PerLayer, layers); err != nil {
				t.Error(err)
			}
			for name, m := range layers {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			checkSpans(t, traced)
		})
	}
}

// checkSpans asserts the span tree is well formed: every span closes,
// children nest inside their parents, and operations are roots.
func checkSpans(t *testing.T, r *result) {
	t.Helper()
	spans := r.tr.spans
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Fatalf("span %+v escapes its parent %+v", s, p)
		}
	}
}

// TestCheckClassifiesStaleReads pins the oracle: the current version
// counts as read, an earlier version of the block fails the operation,
// and any other bytes are corruption.
func TestCheckClassifiesStaleReads(t *testing.T) {
	f, err := buildLibrary(7, quickSizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := key{f.parts[0], 0} // every 10th block carries a patch
	if len(f.patches[k]) == 0 {
		t.Fatal("block 0 has no patch")
	}
	var cur, old, bad step
	f.check(&cur, k, f.want(k))
	f.check(&old, k, f.orig[k])
	f.check(&bad, k, make([]byte, len(f.orig[k])))
	if cur.read != 1 || cur.failed || old.read != 0 || !old.failed || old.corrupt != 0 || bad.corrupt != 1 {
		t.Errorf("current %+v, stale %+v, wrong %+v", cur, old, bad)
	}
}

// TestTimeSetups pins what setup_s and heap_mb are taken over: every
// store of the seed chain once, more builds until the least wall time,
// and a positive time and heap for each.
func TestTimeSetups(t *testing.T) {
	w, err := workloadByName("point-hot")
	if err != nil {
		t.Fatal(err)
	}
	times, heaps, err := timeSetups(w, 7, quickSizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != setupStores || len(heaps) != setupStores {
		t.Fatalf("%d times, %d heaps, want %d each", len(times), len(heaps), setupStores)
	}
	for i := range times {
		if times[i] <= 0 || heaps[i] <= 0 {
			t.Errorf("build %d: %v s, %v B", i, times[i], heaps[i])
		}
	}
	if times, _, err = timeSetups(w, 7, quickSizes, 0.2); err != nil || len(times) <= setupStores {
		t.Errorf("0.2 s of quick builds: %d builds, %v", len(times), err)
	}
}

func TestRejectsMetricSetMismatch(t *testing.T) {
	spec := loadTestSpec(t)
	m := map[string]metric{}
	for _, ms := range spec.EndToEnd {
		m[ms.Name] = metric{1, ms.Unit}
	}
	if err := checkMetrics(spec.EndToEnd, m); err != nil {
		t.Fatal(err)
	}
	m["extra"] = metric{1, "s"}
	if checkMetrics(spec.EndToEnd, m) == nil {
		t.Error("an unlisted metric passed")
	}
	delete(m, "extra")
	m["setup_s"] = metric{1, "ms"}
	if checkMetrics(spec.EndToEnd, m) == nil {
		t.Error("a wrong unit passed")
	}
}

// TestQuartiles pins Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
