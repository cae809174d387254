package dna

import (
	"testing"
	"testing/quick"

	"dnastore/internal/rng"
)

func randomSeq(r *rng.Source, n int) Seq {
	s := make(Seq, n)
	for i := range s {
		s[i] = Base(r.Intn(4))
	}
	return s
}

func TestHamming(t *testing.T) {
	a := MustFromString("ACGT")
	b := MustFromString("ACGA")
	if got := Hamming(a, b); got != 1 {
		t.Errorf("Hamming = %d want 1", got)
	}
	if got := Hamming(a, a); got != 0 {
		t.Errorf("self distance %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unequal lengths")
		}
	}()
	Hamming(a, MustFromString("ACG"))
}

func TestHammingAtMost(t *testing.T) {
	a := MustFromString("AAAAAA")
	b := MustFromString("AATTAA")
	if !HammingAtMost(a, b, 2) {
		t.Error("distance 2 should satisfy k=2")
	}
	if HammingAtMost(a, b, 1) {
		t.Error("distance 2 should fail k=1")
	}
}

// refLevenshtein is the unbanded O(len(a)*len(b)) edit-distance DP,
// kept as the reference oracle for the compiled Pattern kernels.
func refLevenshtein(a, b Seq) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter sequence; keep one row of the DP matrix.
	n := len(b)
	row := make([]int, n+1)
	for j := 0; j <= n; j++ {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][0]
		row[0] = i
		for j := 1; j <= n; j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost
			if v := row[j] + 1; v < best {
				best = v
			}
			if v := row[j-1] + 1; v < best {
				best = v
			}
			row[j] = best
			prev = cur
		}
	}
	return row[n]
}

// refPrefixAlignment is the unbanded prefix-alignment DP: the minimum
// edit distance between pattern and any prefix of text, with the end
// of the leftmost best prefix. It is the reference oracle for
// Pattern.PrefixAlignmentAtMost and, on reversed sequences, for
// Pattern.SuffixAlignmentAtMost.
func refPrefixAlignment(pattern, text Seq) (dist, end int) {
	m, n := len(pattern), len(text)
	if m == 0 {
		return 0, 0
	}
	// DP over pattern prefix (rows) vs text prefix (cols); free end in text.
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j // insertions before pattern start are charged
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if pattern[i-1] == text[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	bestDist, bestEnd := prev[0], 0
	for j := 1; j <= n; j++ {
		if prev[j] < bestDist {
			bestDist, bestEnd = prev[j], j
		}
	}
	return bestDist, bestEnd
}

// refPrefixAtMost and refSuffixAtMost apply a kernel's budget contract
// to the unbanded references: the exact result when it is within k,
// zero values with ok=false otherwise.
func refPrefixAtMost(pattern, text Seq, k int) (dist, end int, ok bool) {
	dist, end = refPrefixAlignment(pattern, text)
	if k < 0 || dist > k {
		return 0, 0, false
	}
	return dist, end, true
}

func refSuffixAtMost(pattern, text Seq, k int) (dist int, ok bool) {
	dist, _, ok = refPrefixAtMost(reverse(pattern), reverse(text), k)
	return dist, ok
}

func reverse(s Seq) Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b
	}
	return out
}

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACG", 3},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGT", 1},   // deletion
		{"ACGT", "ACGTA", 1}, // insertion
		{"ACGT", "ACTT", 1},  // substitution
		{"ACGT", "TGCA", 4},
		{"GATTACA", "GCATGCT", 4},
	}
	for _, c := range cases {
		a, b := MustFromString(c.a), MustFromString(c.b)
		if got := refLevenshtein(a, b); got != c.want {
			t.Errorf("refLevenshtein(%q,%q) = %d want %d", c.a, c.b, got, c.want)
		}
		if got := CompilePattern(a).Distance(b); got != c.want {
			t.Errorf("Pattern(%q).Distance(%q) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		a := randomSeq(r, r.Intn(20))
		b := randomSeq(r, r.Intn(20))
		ab, ba := CompilePattern(a).Distance(b), CompilePattern(b).Distance(a)
		if ab != ba || ab != refLevenshtein(b, a) {
			t.Fatalf("asymmetric for %v / %v: %d vs %d", a, b, ab, ba)
		}
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		a := randomSeq(r, 5+r.Intn(15))
		b := randomSeq(r, 5+r.Intn(15))
		c := randomSeq(r, 5+r.Intn(15))
		pa, pb := CompilePattern(a), CompilePattern(b)
		ab, bc, ac := pa.Distance(b), pb.Distance(c), pa.Distance(c)
		if ac > ab+bc {
			t.Fatalf("triangle violated: d(a,c)=%d > %d+%d", ac, ab, bc)
		}
	}
}

func TestLevenshteinBoundedBySingleEdit(t *testing.T) {
	// Property: mutating one position changes edit distance by at most 1.
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		s := randomSeq(rr, 10+rr.Intn(20))
		m := s.Clone()
		i := rr.Intn(len(m))
		m[i] = Base((int(m[i]) + 1 + rr.Intn(3)) % 4)
		return CompilePattern(s).LevenshteinAtMost(m, 1) && refLevenshtein(s, m) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinAtMostAgreesWithExact(t *testing.T) {
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		a := randomSeq(r, r.Intn(25))
		b := randomSeq(r, r.Intn(25))
		d := refLevenshtein(a, b)
		pat := CompilePattern(a)
		for _, k := range []int{0, 1, 2, 3, 5, 8} {
			got := pat.LevenshteinAtMost(b, k)
			want := d <= k
			if got != want {
				t.Fatalf("LevenshteinAtMost(%v,%v,%d) = %v, exact distance %d",
					a, b, k, got, d)
			}
		}
	}
}

func TestLevenshteinAtMostNegativeK(t *testing.T) {
	if CompilePattern(MustFromString("A")).LevenshteinAtMost(MustFromString("A"), -1) {
		t.Error("negative k should always be false")
	}
}

// TestPrefixAlignment pins known answers of the reference DP and of the
// compiled kernel at the budget len(pattern), which always suffices
// (aligning against the empty prefix costs exactly that).
func TestPrefixAlignment(t *testing.T) {
	pattern := MustFromString("ACGTAC")
	pat := CompilePattern(pattern)
	cases := []struct {
		text    string
		minDist int // exact unless maxDist is also set
		maxDist int
		end     int // -1: not pinned
	}{
		{"ACGTACGGGGTTTT", 0, 0, 6}, // exact prefix
		{"ACTTACGGGG", 1, 1, -1},    // one substitution
		{"ACGACGGGG", 1, 1, -1},     // one deletion in the text
		{"TTTTTTTTTT", 4, 6, -1},    // unrelated prefix
	}
	for _, c := range cases {
		text := MustFromString(c.text)
		rd, re := refPrefixAlignment(pattern, text)
		d, e, ok := pat.PrefixAlignmentAtMost(text, len(pattern))
		if !ok || d != rd || e != re {
			t.Errorf("%s: kernel (%d, %d, %v), reference (%d, %d)", c.text, d, e, ok, rd, re)
		}
		if rd < c.minDist || rd > c.maxDist || (c.end >= 0 && re != c.end) {
			t.Errorf("%s: d=%d end=%d, want d in [%d, %d] end %d", c.text, rd, re, c.minDist, c.maxDist, c.end)
		}
	}
	if d, end := refPrefixAlignment(nil, pattern); d != 0 || end != 0 {
		t.Errorf("empty pattern: d=%d end=%d", d, end)
	}
}

func TestFindApprox(t *testing.T) {
	text := MustFromString("TTTTACGTACGTTTTT")
	pat := CompilePattern(MustFromString("ACGTACGT"))
	end, d := pat.FindApprox(text, 1)
	if d != 0 {
		t.Errorf("exact occurrence: d=%d", d)
	}
	if end != 12 {
		t.Errorf("end=%d want 12", end)
	}
	// With one error in the text.
	text2 := MustFromString("TTTTACGAACGTTTTT")
	_, d2 := pat.FindApprox(text2, 2)
	if d2 != 1 {
		t.Errorf("one error: d=%d want 1", d2)
	}
	// Absent pattern.
	end3, d3 := CompilePattern(MustFromString("GGGGGGGG")).FindApprox(MustFromString("ATATATAT"), 2)
	if end3 != -1 || d3 != 3 {
		t.Errorf("absent pattern: end=%d d=%d", end3, d3)
	}
}

func TestFindApproxRight(t *testing.T) {
	// A periodic pattern occurring twice: the rightmost match must win.
	text := MustFromString("TTTTACGAACGTTTACGAACGTT")
	end, d := CompilePattern(MustFromString("ACGAACG")).FindApproxRight(text, 1)
	if d != 0 {
		t.Errorf("d=%d want 0", d)
	}
	if end != 21 {
		t.Errorf("end=%d want 21 (rightmost)", end)
	}
	// The failure mode that motivated this function: periodic primer
	// TGCA x5 preceded by a payload that happens to end in TGCA.
	primer := MustFromString("TGCATGCATGCATGCATGCA")
	read := Concat(MustFromString("GGCCTGCA"), primer)
	end, d = CompilePattern(primer).FindApproxRight(read, 3)
	if end != len(read) || d != 0 {
		t.Errorf("periodic primer: end=%d d=%d want %d,0", end, d, len(read))
	}
	// Absent pattern.
	if end, _ := CompilePattern(MustFromString("GGGGGGGG")).FindApproxRight(MustFromString("ATATATAT"), 2); end != -1 {
		t.Errorf("absent pattern end=%d", end)
	}
	// Empty pattern matches at the very end.
	if end, d := CompilePattern(nil).FindApproxRight(text, 0); end != len(text) || d != 0 {
		t.Errorf("empty pattern: %d %d", end, d)
	}
}

// refFindApprox is the original unbanded Sellers DP, kept as the
// reference oracle for the cut-off implementation.
func refFindApprox(pattern, text Seq, k int, rightmost bool) (end, dist int) {
	m, n := len(pattern), len(text)
	if m == 0 {
		if rightmost {
			return n, 0
		}
		return 0, 0
	}
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if pattern[i-1] == text[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	bestEnd, bestDist := -1, k+1
	for j := 1; j <= n; j++ {
		if rightmost {
			if prev[j] <= bestDist && prev[j] <= k {
				bestDist, bestEnd = prev[j], j
			}
		} else if prev[j] < bestDist {
			bestDist, bestEnd = prev[j], j
		}
	}
	if bestEnd < 0 {
		return -1, k + 1
	}
	return bestEnd, bestDist
}

// mutate applies roughly nEdits random indel/substitution edits.
func mutate(r *rng.Source, s Seq, nEdits int) Seq {
	out := s.Clone()
	for e := 0; e < nEdits && len(out) > 0; e++ {
		i := r.Intn(len(out))
		switch r.Intn(3) {
		case 0: // substitution
			out[i] = Base((int(out[i]) + 1 + r.Intn(3)) % 4)
		case 1: // deletion
			out = append(out[:i], out[i+1:]...)
		default: // insertion
			out = append(out, 0)
			copy(out[i+1:], out[i:])
			out[i] = Base(r.Intn(4))
		}
	}
	return out
}

func TestFindApproxMatchesReference(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 400; i++ {
		pattern := randomSeq(r, 4+r.Intn(30))
		var text Seq
		if r.Bool() {
			// Embed a mutated copy so near-matches are exercised.
			text = Concat(randomSeq(r, r.Intn(40)), mutate(r, pattern, r.Intn(4)), randomSeq(r, r.Intn(40)))
		} else {
			text = randomSeq(r, r.Intn(80))
		}
		pat := CompilePattern(pattern)
		for _, k := range []int{0, 1, 2, 3, 5} {
			wantEnd, wantDist := refFindApprox(pattern, text, k, false)
			gotEnd, gotDist := pat.FindApprox(text, k)
			if gotEnd != wantEnd || gotDist != wantDist {
				t.Fatalf("FindApprox(%v, %v, %d) = (%d, %d), want (%d, %d)",
					pattern, text, k, gotEnd, gotDist, wantEnd, wantDist)
			}
			wantEnd, wantDist = refFindApprox(pattern, text, k, true)
			gotEnd, gotDist = pat.FindApproxRight(text, k)
			if gotEnd != wantEnd || gotDist != wantDist {
				t.Fatalf("FindApproxRight(%v, %v, %d) = (%d, %d), want (%d, %d)",
					pattern, text, k, gotEnd, gotDist, wantEnd, wantDist)
			}
		}
	}
}

func TestPrefixAlignmentAtMostMatchesUnbanded(t *testing.T) {
	r := rng.New(12)
	for i := 0; i < 500; i++ {
		pattern := randomSeq(r, 1+r.Intn(32))
		var text Seq
		if r.Bool() {
			text = Concat(mutate(r, pattern, r.Intn(4)), randomSeq(r, r.Intn(10)))
		} else {
			text = randomSeq(r, r.Intn(40))
		}
		pat := CompilePattern(pattern)
		for _, k := range []int{0, 1, 2, 3, 5, 8} {
			wd, we, wok := refPrefixAtMost(pattern, text, k)
			dist, end, ok := pat.PrefixAlignmentAtMost(text, k)
			if dist != wd || end != we || ok != wok {
				t.Fatalf("PrefixAlignmentAtMost(%v, %v, %d) = (%d, %d, %v), want (%d, %d, %v)",
					pattern, text, k, dist, end, ok, wd, we, wok)
			}
		}
	}
}

func TestSuffixAlignmentAtMostMatchesReversedPrefix(t *testing.T) {
	r := rng.New(13)
	for i := 0; i < 500; i++ {
		pattern := randomSeq(r, 1+r.Intn(32))
		var text Seq
		if r.Bool() {
			text = Concat(randomSeq(r, r.Intn(10)), mutate(r, pattern, r.Intn(4)))
		} else {
			text = randomSeq(r, r.Intn(40))
		}
		pat := CompilePattern(pattern)
		for _, k := range []int{0, 1, 2, 3, 5, 8} {
			wd, wok := refSuffixAtMost(pattern, text, k)
			dist, ok := pat.SuffixAlignmentAtMost(text, k)
			if dist != wd || ok != wok {
				t.Fatalf("SuffixAlignmentAtMost(%v, %v, %d) = (%d, %v), want (%d, %v)",
					pattern, text, k, dist, ok, wd, wok)
			}
		}
	}
}

// TestLevenshteinAtMostLargeK drives budgets wider than half a word
// across the word/blocked boundary (60-120 bases).
func TestLevenshteinAtMostLargeK(t *testing.T) {
	r := rng.New(14)
	for i := 0; i < 50; i++ {
		a := randomSeq(r, 60+r.Intn(60))
		b := mutate(r, a, r.Intn(50))
		d := refLevenshtein(a, b)
		pat := CompilePattern(a)
		for _, k := range []int{35, 40, 55} {
			if got, want := pat.LevenshteinAtMost(b, k), d <= k; got != want {
				t.Fatalf("LevenshteinAtMost(len %d, len %d, %d) = %v, exact %d",
					len(a), len(b), k, got, d)
			}
		}
	}
}

// TestDistanceKernelsDoNotAllocate pins the zero-allocation property of
// the package-level Hamming metrics and of the exact Pattern.Distance
// on read-length sequences.
func TestDistanceKernelsDoNotAllocate(t *testing.T) {
	r := rng.New(15)
	a := randomSeq(r, 150)
	b := mutate(r, a, 6)
	c := randomSeq(r, 150)
	pat := CompilePattern(a)
	checks := map[string]func(){
		"Hamming":          func() { Hamming(a, c) },
		"HammingAtMost":    func() { HammingAtMost(a, c, 20) },
		"Pattern.Distance": func() { pat.Distance(b) },
	}
	for name, fn := range checks {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
		}
	}
}
