package fault

import (
	"math"
	"sync"
	"testing"

	"dnastore/internal/rng"
)

// TestNilInjectorDrawsNothing pins the no-op contract: a nil injector
// (and a zero-plan one) answers every hook without touching the
// caller's rng stream, so engines with fault hooks stay byte-identical
// to engines without them.
func TestNilInjectorDrawsNothing(t *testing.T) {
	var nilInj *Injector
	zero, err := NewInjector(Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]*Injector{"nil": nilInj, "zero-plan": zero} {
		r := rng.New(42)
		if out := in.PCR(r); out.Failed || out.CycleFrac != 1 {
			t.Errorf("%s: PCR outcome %+v", name, out)
		}
		if f := in.SeqDeliveredFrac(r); f != 1 {
			t.Errorf("%s: delivered frac %g", name, f)
		}
		if in.DropSynthesis(r) {
			t.Errorf("%s: dropped synthesis", name)
		}
		if f := in.ContaminationFrac(r); f != 0 {
			t.Errorf("%s: contamination frac %g", name, f)
		}
		// The stream must be exactly where a fresh source is.
		if got, want := r.Uint64(), rng.New(42).Uint64(); got != want {
			t.Errorf("%s: injector consumed rng draws", name)
		}
		if st := in.Stats(); st != (Stats{}) {
			t.Errorf("%s: stats %+v", name, st)
		}
	}
}

// TestDrawDiscipline pins the per-stage draw budget: an armed stage
// draws exactly one Float64 per decision, a disarmed stage none — the
// determinism contract injected campaigns rest on.
func TestDrawDiscipline(t *testing.T) {
	in, err := NewInjector(Plan{PCRFail: 0.5}) // only PCR armed
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	in.PCR(r)               // one draw
	in.SeqDeliveredFrac(r)  // disarmed: none
	in.DropSynthesis(r)     // disarmed: none
	in.ContaminationFrac(r) // disarmed: none
	ref := rng.New(7)
	ref.Float64()
	if got, want := r.Uint64(), ref.Uint64(); got != want {
		t.Error("armed PCR stage did not draw exactly once, or a disarmed stage drew")
	}
}

// TestCertainFaults verifies rate-1 plans always fire and the counters
// record every firing, concurrently.
func TestCertainFaults(t *testing.T) {
	in, err := NewInjector(Plan{PCRFail: 1, SeqAbort: 1, SynthDrop: 1, Contamination: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < per; i++ {
				if out := in.PCR(r); !out.Failed {
					t.Error("certain PCR failure did not fire")
				}
				if f := in.SeqDeliveredFrac(r); f != 0.3 {
					t.Errorf("abort frac %g, want default 0.3", f)
				}
				if !in.DropSynthesis(r) {
					t.Error("certain drop did not fire")
				}
				if f := in.ContaminationFrac(r); f != 0.5 {
					t.Errorf("contaminant frac %g, want default 0.5", f)
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	st := in.Stats()
	want := int64(workers * per)
	if st.PCRFailures != want || st.SeqAborts != want || st.SynthDrops != want || st.Contaminations != want {
		t.Errorf("stats %+v, want %d each", st, want)
	}
}

// TestPartialYield verifies the fail/partial split of the single PCR
// draw and the partial counter.
func TestPartialYield(t *testing.T) {
	in, err := NewInjector(Plan{PCRPartial: 1, PCRPartialYield: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	out := in.PCR(rng.New(3))
	if out.Failed || out.CycleFrac != 0.4 {
		t.Errorf("outcome %+v, want partial at 0.4", out)
	}
	if st := in.Stats(); st.PCRPartials != 1 || st.PCRFailures != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{PCRFail: -0.1},
		{SeqAbort: 1.5},
		{Contamination: math.NaN()},
		{PCRFail: 0.6, PCRPartial: 0.6}, // split exceeds 1
		{PCRPartialYield: 1.5},
		{SeqAbortFrac: -2},
		{ContaminantFrac: math.Inf(1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
		if _, err := NewInjector(p); err == nil {
			t.Errorf("injector %d accepted: %+v", i, p)
		}
	}
	if err := Uniform(0.05).Validate(); err != nil {
		t.Errorf("uniform plan rejected: %v", err)
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
}

func TestUniform(t *testing.T) {
	p := Uniform(0.25)
	for name, v := range map[string]float64{
		"PCRFail": p.PCRFail, "PCRPartial": p.PCRPartial,
		"SeqAbort": p.SeqAbort, "SynthDrop": p.SynthDrop,
		"Contamination": p.Contamination,
	} {
		if v != 0.25 {
			t.Errorf("%s = %g", name, v)
		}
	}
}

func TestRetryPolicyNormalize(t *testing.T) {
	def := (RetryPolicy{}).Normalize()
	if def != DefaultRetryPolicy() {
		t.Errorf("zero policy normalized to %+v", def)
	}
	off := (RetryPolicy{MaxRetries: -1, MaxSynthRetries: -1}).Normalize()
	if off.MaxRetries != 0 || off.MaxSynthRetries != 0 {
		t.Errorf("disabled budgets normalized to %+v", off)
	}
	if p := (RetryPolicy{DepthGrowth: 0.5, HedgeFloor: -1}).Normalize(); p.DepthGrowth != 2 || p.HedgeFloor != 2 {
		t.Errorf("degenerate growth/floor normalized to %+v", p)
	}
	keep := RetryPolicy{MaxRetries: 5, DepthGrowth: 3, HedgeFloor: 1.5, MaxSynthRetries: 2, NoQuarantine: true}
	if got := keep.Normalize(); got != keep {
		t.Errorf("explicit policy changed: %+v", got)
	}
	if err := keep.Validate(); err != nil {
		t.Errorf("finite policy rejected: %v", err)
	}
	for _, bad := range []RetryPolicy{{DepthGrowth: math.Inf(1)}, {DepthGrowth: math.NaN()}, {HedgeFloor: math.Inf(-1)}, {HedgeFloor: math.NaN()}} {
		if bad.Validate() == nil {
			t.Errorf("non-finite policy %+v accepted", bad)
		}
	}
}
