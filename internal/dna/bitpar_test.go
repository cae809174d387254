package dna

import (
	"testing"

	"dnastore/internal/rng"
)

// mutatePair builds a text related to pattern by nEdits random edits,
// or an unrelated random text, exercising both accept and reject paths.
func mutatePair(r *rng.Source, maxLen int) (pattern, text Seq) {
	pattern = randomSeq(r, 1+r.Intn(maxLen))
	if r.Bool() {
		text = mutate(r, pattern, r.Intn(8))
	} else {
		text = randomSeq(r, r.Intn(maxLen+8))
	}
	return pattern, text
}

// TestDistanceAtMostMatchesExact pins the word and blocked distance
// kernels against the full O(mn) reference across random lengths and
// budgets, including the word/blocked boundary and the multi-block
// regime.
func TestDistanceAtMostMatchesExact(t *testing.T) {
	r := rng.New(51)
	budgets := []int{0, 1, 2, 3, 6, 8, 13, 20, 40, 70}
	for _, maxLen := range []int{10, 63, 64, 65, 100, 150, 200, 300} {
		for i := 0; i < 150; i++ {
			a, b := mutatePair(r, maxLen)
			want := refLevenshtein(a, b)
			pat := CompilePattern(a)
			for _, k := range budgets {
				d, ok := pat.DistanceAtMost(b, k)
				if ok != (want <= k) || (ok && d != want) || (!ok && d != 0) {
					t.Fatalf("Pattern(len %d).DistanceAtMost(len %d, %d) = (%d, %v), exact %d",
						len(a), len(b), k, d, ok, want)
				}
				if got := pat.LevenshteinAtMost(b, k); got != (want <= k) {
					t.Fatalf("Pattern(len %d).LevenshteinAtMost(len %d, %d) = %v, exact %d",
						len(a), len(b), k, got, want)
				}
			}
			if got := pat.Distance(b); got != want {
				t.Fatalf("Pattern.Distance = %d, exact %d", got, want)
			}
		}
	}
}

// TestPatternFindMatchesReference pins the word search kernels against
// the unbanded Sellers DP, including end-position tie-breaking and the
// (-1, k+1) miss.
func TestPatternFindMatchesReference(t *testing.T) {
	r := rng.New(52)
	for i := 0; i < 500; i++ {
		pattern := randomSeq(r, 1+r.Intn(64))
		var text Seq
		if r.Bool() {
			text = Concat(randomSeq(r, r.Intn(40)), mutate(r, pattern, r.Intn(5)), randomSeq(r, r.Intn(40)))
		} else {
			text = randomSeq(r, r.Intn(120))
		}
		pat := CompilePattern(pattern)
		for _, k := range []int{0, 1, 2, 3, 5, 9} {
			wantEnd, wantDist := refFindApprox(pattern, text, k, false)
			gotEnd, gotDist := pat.FindApprox(text, k)
			if gotEnd != wantEnd || gotDist != wantDist {
				t.Fatalf("FindApprox(len %d, len %d, %d) = (%d, %d), reference (%d, %d)",
					len(pattern), len(text), k, gotEnd, gotDist, wantEnd, wantDist)
			}
			wantEnd, wantDist = refFindApprox(pattern, text, k, true)
			gotEnd, gotDist = pat.FindApproxRight(text, k)
			if gotEnd != wantEnd || gotDist != wantDist {
				t.Fatalf("FindApproxRight(len %d, len %d, %d) = (%d, %d), reference (%d, %d)",
					len(pattern), len(text), k, gotEnd, gotDist, wantEnd, wantDist)
			}
		}
	}
}

// TestPatternPrefixSuffixMatchesReference pins the word prefix/suffix
// kernels against the unbanded DP, including the leftmost-end rule and
// the zero values returned with ok=false.
func TestPatternPrefixSuffixMatchesReference(t *testing.T) {
	r := rng.New(53)
	for i := 0; i < 800; i++ {
		pattern := randomSeq(r, 1+r.Intn(64))
		var text Seq
		switch r.Intn(3) {
		case 0:
			text = Concat(mutate(r, pattern, r.Intn(5)), randomSeq(r, r.Intn(12)))
		case 1:
			text = Concat(randomSeq(r, r.Intn(12)), mutate(r, pattern, r.Intn(5)))
		default:
			text = randomSeq(r, r.Intn(90))
		}
		pat := CompilePattern(pattern)
		for _, k := range []int{0, 1, 2, 3, 5, 8, 15} {
			wd, we, wok := refPrefixAtMost(pattern, text, k)
			gd, ge, gok := pat.PrefixAlignmentAtMost(text, k)
			if gd != wd || ge != we || gok != wok {
				t.Fatalf("PrefixAlignmentAtMost(len %d, len %d, %d) = (%d, %d, %v), reference (%d, %d, %v)",
					len(pattern), len(text), k, gd, ge, gok, wd, we, wok)
			}
			wd, wok = refSuffixAtMost(pattern, text, k)
			gd, gok = pat.SuffixAlignmentAtMost(text, k)
			if gd != wd || gok != wok {
				t.Fatalf("SuffixAlignmentAtMost(len %d, len %d, %d) = (%d, %v), reference (%d, %v)",
					len(pattern), len(text), k, gd, gok, wd, wok)
			}
		}
	}
}

// TestPatternHeapBlocks exercises the beyond-stack blocked path
// (patterns over 512 bases) against the reference.
func TestPatternHeapBlocks(t *testing.T) {
	r := rng.New(54)
	for i := 0; i < 20; i++ {
		a := randomSeq(r, 520+r.Intn(200))
		b := mutate(r, a, r.Intn(30))
		want := refLevenshtein(a, b)
		pat := CompilePattern(a)
		for _, k := range []int{10, 25, 40} {
			d, ok := pat.DistanceAtMost(b, k)
			if ok != (want <= k) || (ok && d != want) {
				t.Fatalf("heap blocked (len %d vs %d, k=%d) = (%d, %v), exact %d",
					len(a), len(b), k, d, ok, want)
			}
		}
	}
}

// TestPatternEdgeCases covers empty patterns/texts, negative budgets
// and the word-kernel length limit.
func TestPatternEdgeCases(t *testing.T) {
	text := MustFromString("ACGTACGT")
	empty := CompilePattern(nil)
	if d, ok := empty.DistanceAtMost(text, 10); !ok || d != len(text) {
		t.Errorf("empty pattern distance = (%d, %v)", d, ok)
	}
	if _, ok := empty.DistanceAtMost(text, 3); ok {
		t.Error("empty pattern within 3 of 8-base text")
	}
	if end, d := empty.FindApprox(text, 2); end != 0 || d != 0 {
		t.Errorf("empty FindApprox = (%d, %d)", end, d)
	}
	if end, d := empty.FindApproxRight(text, 2); end != len(text) || d != 0 {
		t.Errorf("empty FindApproxRight = (%d, %d)", end, d)
	}
	if d, e, ok := empty.PrefixAlignmentAtMost(text, 0); d != 0 || e != 0 || !ok {
		t.Errorf("empty prefix = (%d, %d, %v)", d, e, ok)
	}
	pat := CompilePattern(MustFromString("ACGT"))
	if _, ok := pat.DistanceAtMost(text, -1); ok {
		t.Error("negative budget accepted")
	}
	if end, d := pat.FindApprox(text, -1); end != -1 || d != 0 {
		t.Errorf("negative budget FindApprox = (%d, %d)", end, d)
	}
	if d, ok := pat.DistanceAtMost(nil, 4); !ok || d != 4 {
		t.Errorf("empty text distance = (%d, %v)", d, ok)
	}
	if _, _, ok := pat.PrefixAlignmentAtMost(nil, 3); ok {
		t.Error("4-base pattern within 3 of empty text")
	}
	if d, _, ok := pat.PrefixAlignmentAtMost(nil, 4); !ok || d != 4 {
		t.Error("4-base pattern vs empty text should cost 4")
	}
	// The search and end-alignment kernels take at most MaxPatternLen
	// bases and panic past it; the distance kernels take any length.
	r := rng.New(58)
	long := randomSeq(r, 100)
	at := CompilePattern(long[:MaxPatternLen])
	for name, fn := range wordKernels(at, long, 3) {
		if panics(fn) {
			t.Errorf("%s on a %d-base pattern panicked", name, at.Len())
		}
	}
	past := CompilePattern(long[:MaxPatternLen+1])
	past.DistanceAtMost(long, 40)
	for name, fn := range wordKernels(past, long, 3) {
		if !panics(fn) {
			t.Errorf("%s on a %d-base pattern did not panic", name, past.Len())
		}
	}
}

// TestPatternKernelsDoNotAllocate pins the zero-allocation property of
// every compiled-pattern kernel, including the blocked distance for
// read-length patterns — these run millions of times per decode.
func TestPatternKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(55)
	long := randomSeq(r, 150)
	longText := mutate(r, long, 6)
	word := randomSeq(r, 31)
	text := Concat(randomSeq(r, 20), mutate(r, word, 2), randomSeq(r, 80))
	longPat := CompilePattern(long)
	wordPat := CompilePattern(word)
	checks := map[string]func(){
		"DistanceAtMost/blocked": func() { longPat.DistanceAtMost(longText, 20) },
		"DistanceAtMost/word":    func() { wordPat.DistanceAtMost(word, 5) },
		"FindApprox":             func() { wordPat.FindApprox(text, 3) },
		"FindApproxRight":        func() { wordPat.FindApproxRight(text, 3) },
		"PrefixAlignmentAtMost":  func() { wordPat.PrefixAlignmentAtMost(text[:40], 5) },
		"SuffixAlignmentAtMost":  func() { wordPat.SuffixAlignmentAtMost(text[len(text)-40:], 5) },
	}
	for name, fn := range checks {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
		}
	}
}

// TestCompilePatternAllocs pins the compile cost: one allocation for
// the Pattern itself plus, past one word, one for the per-block table.
// The input sequence is not copied.
func TestCompilePatternAllocs(t *testing.T) {
	r := rng.New(56)
	for _, c := range []struct{ n, want int }{{31, 1}, {64, 1}, {150, 2}, {600, 2}} {
		seq := randomSeq(r, c.n)
		if avg := testing.AllocsPerRun(200, func() { CompilePattern(seq) }); avg != float64(c.want) {
			t.Errorf("CompilePattern(%d bases) allocates %.1f times, want %d", c.n, avg, c.want)
		}
	}
}

// TestCompilePatternOwnsNoInput mutates the input after compiling and
// checks that every kernel result is unchanged: a Pattern keeps only
// its Eq tables.
func TestCompilePatternOwnsNoInput(t *testing.T) {
	r := rng.New(57)
	for _, n := range []int{20, 64, 150} {
		seq := randomSeq(r, n)
		text := Concat(randomSeq(r, 7), mutate(r, seq, 3), randomSeq(r, 9))
		pat := CompilePattern(seq)
		results := func() []int {
			d, ok := pat.DistanceAtMost(text, 40)
			out := []int{d, b2i(ok), pat.Distance(text)}
			if pat.Len() > MaxPatternLen {
				return out
			}
			e, fd := pat.FindApprox(text, 5)
			re, rd := pat.FindApproxRight(text, 5)
			pd, pe, pok := pat.PrefixAlignmentAtMost(text, 20)
			sd, sok := pat.SuffixAlignmentAtMost(text, 20)
			return append(out, e, fd, re, rd, pd, pe, b2i(pok), sd, b2i(sok))
		}
		before := results()
		for i := range seq {
			seq[i] = (seq[i] + 1) % 4
		}
		after := results()
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%d bases: results changed after mutating the input: %v -> %v", n, before, after)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// wordKernels returns the four single-word kernels of p bound to text
// and budget k.
func wordKernels(p *Pattern, text Seq, k int) map[string]func() {
	return map[string]func(){
		"FindApprox":            func() { p.FindApprox(text, k) },
		"FindApproxRight":       func() { p.FindApproxRight(text, k) },
		"PrefixAlignmentAtMost": func() { p.PrefixAlignmentAtMost(text, k) },
		"SuffixAlignmentAtMost": func() { p.SuffixAlignmentAtMost(text, k) },
	}
}

func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// FuzzBitparKernels drives every compiled-pattern kernel against the
// unbanded references with fuzzer-chosen sequences and budgets. The
// search and end-alignment kernels must panic past MaxPatternLen.
func FuzzBitparKernels(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGAACGT"), 3)
	f.Add([]byte(""), []byte("T"), 0)
	f.Add([]byte("ACACACACACACACACACACACACACACACACACACACACACACACACACACACACACACACACAC"), []byte("ACAC"), 5)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, k int) {
		if len(rawA) > 700 || len(rawB) > 700 {
			return
		}
		if k < -1 {
			k = -k
		}
		if k > 100 {
			k %= 100
		}
		a := make(Seq, len(rawA))
		for i, b := range rawA {
			a[i] = Base(b & 3)
		}
		b := make(Seq, len(rawB))
		for i, c := range rawB {
			b[i] = Base(c & 3)
		}
		want := refLevenshtein(a, b)
		pat := CompilePattern(a)
		d, ok := pat.DistanceAtMost(b, k)
		if ok != (k >= 0 && want <= k) || (ok && d != want) || (!ok && d != 0) {
			t.Fatalf("DistanceAtMost(%v, %v, %d) = (%d, %v), exact %d", a, b, k, d, ok, want)
		}
		if len(a) > MaxPatternLen {
			for name, fn := range wordKernels(pat, b, k) {
				if !panics(fn) {
					t.Fatalf("%s on a %d-base pattern did not panic", name, len(a))
				}
			}
			return
		}
		wantEnd, wantDist := refFindApprox(a, b, k, false)
		gotEnd, gotDist := pat.FindApprox(b, k)
		if gotEnd != wantEnd || gotDist != wantDist {
			t.Fatalf("FindApprox(%v, %v, %d) = (%d, %d), reference (%d, %d)", a, b, k, gotEnd, gotDist, wantEnd, wantDist)
		}
		wantEnd, wantDist = refFindApprox(a, b, k, true)
		gotEnd, gotDist = pat.FindApproxRight(b, k)
		if gotEnd != wantEnd || gotDist != wantDist {
			t.Fatalf("FindApproxRight(%v, %v, %d) = (%d, %d), reference (%d, %d)", a, b, k, gotEnd, gotDist, wantEnd, wantDist)
		}
		wd, we, wok := refPrefixAtMost(a, b, k)
		gd, ge, gok := pat.PrefixAlignmentAtMost(b, k)
		if gd != wd || ge != we || gok != wok {
			t.Fatalf("PrefixAlignmentAtMost(%v, %v, %d) = (%d, %d, %v), reference (%d, %d, %v)", a, b, k, gd, ge, gok, wd, we, wok)
		}
		swd, swok := refSuffixAtMost(a, b, k)
		sd, sok := pat.SuffixAlignmentAtMost(b, k)
		if sd != swd || sok != swok {
			t.Fatalf("SuffixAlignmentAtMost(%v, %v, %d) = (%d, %v), reference (%d, %v)", a, b, k, sd, sok, swd, swok)
		}
	})
}

// --- benchmarks ----------------------------------------------------------

func benchPair(r *rng.Source, n, edits int) (Seq, Seq) {
	a := randomSeq(r, n)
	return a, mutate(r, a, edits)
}

func BenchmarkPatternDistanceAtMost150(b *testing.B) {
	r := rng.New(61)
	x, y := benchPair(r, 150, 6)
	pat := CompilePattern(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pat.DistanceAtMost(y, 20)
	}
}

func BenchmarkPatternFindApprox31in131(b *testing.B) {
	r := rng.New(16)
	pattern := randomSeq(r, 31)
	text := Concat(randomSeq(r, 10), mutate(r, pattern, 2), randomSeq(r, 90))
	pat := CompilePattern(pattern)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pat.FindApprox(text, 3)
	}
}

func BenchmarkPatternPrefixAlignmentAtMost(b *testing.B) {
	r := rng.New(17)
	pattern := randomSeq(r, 31)
	text := Concat(mutate(r, pattern, 2), randomSeq(r, 6))
	pat := CompilePattern(pattern)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pat.PrefixAlignmentAtMost(text, 5)
	}
}
