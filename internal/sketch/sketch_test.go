package sketch

import (
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func randomSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// TestSignerPackedMatchesSeq fuzz-pins the packed signature path
// against the Seq path across every packing boundary: lengths 0..130
// sweep all len%4 trailing-byte widths, plus packed views at offsets
// into an arena, so a byte-lane bug in IntoPacked cannot hide.
func TestSignerPackedMatchesSeq(t *testing.T) {
	r := rng.New(1)
	signer := Signer{Q: 12, NumHashes: 4}
	want := make([]uint64, signer.NumHashes)
	got := make([]uint64, signer.NumHashes)
	for n := 0; n <= 130; n++ {
		for rep := 0; rep < 4; rep++ {
			seq := randomSeq(r, n)
			signer.Into(seq, want)
			signer.IntoPacked(dna.Pack(seq), got)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("len %d: packed signature %d = %#x, want %#x", n, j, got[j], want[j])
				}
			}
		}
	}
	// Arena views: pack several reads into one buffer, view each back.
	var arena []byte
	type span struct {
		off, bytes, n int
	}
	var spans []span
	for i := 0; i < 50; i++ {
		n := 100 + r.Intn(60)
		seq := randomSeq(r, n)
		p := dna.Pack(seq)
		spans = append(spans, span{off: len(arena), bytes: len(p.Bytes()), n: n})
		arena = append(arena, p.Bytes()...)
		signer.Into(seq, want)
		view := dna.PackedView(arena[spans[i].off:spans[i].off+spans[i].bytes], n)
		signer.IntoPacked(view, got)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("arena view %d: signature %d mismatch", i, j)
			}
		}
	}
}

// TestSignerShortReads pins the degenerate whole-read hash for reads
// shorter than Q, where distinct reads must get distinct signatures.
func TestSignerShortReads(t *testing.T) {
	signer := Signer{Q: 12, NumHashes: 4}
	a := dna.MustFromString("ACGT")
	b := dna.MustFromString("TTTT")
	sa := make([]uint64, 4)
	sb := make([]uint64, 4)
	signer.Into(a, sa)
	signer.Into(b, sb)
	if sa[0] == sb[0] {
		t.Error("distinct short reads share a signature")
	}
	pa := make([]uint64, 4)
	signer.IntoPacked(dna.Pack(a), pa)
	for j := range sa {
		if pa[j] != sa[j] {
			t.Errorf("short read packed signature %d mismatch", j)
		}
	}
}

func TestSignerValidate(t *testing.T) {
	if err := (Signer{Q: 12, NumHashes: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Signer{
		{Q: 2, NumHashes: 4},
		{Q: 40, NumHashes: 4},
		{Q: 12, NumHashes: 0},
		{Q: 12, NumHashes: 17},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("signer %+v accepted", s)
		}
	}
}

// TestEpochSetDedup pins the epoch semantics: within one epoch the
// second Seen of an id reports true; a new epoch resets everything.
func TestEpochSetDedup(t *testing.T) {
	var s EpochSet
	s.Extend(4)
	s.Begin()
	if s.Seen(2) {
		t.Fatal("fresh id already seen")
	}
	if !s.Seen(2) {
		t.Fatal("repeat id not seen")
	}
	if s.Seen(3) {
		t.Fatal("other id already seen")
	}
	s.Begin()
	if s.Seen(2) {
		t.Fatal("id leaked across epochs")
	}
	// Ids added mid-life start unseen in the current epoch.
	s.Extend(8)
	if s.Seen(7) {
		t.Fatal("extended id already seen")
	}
}

// TestEpochSetWrap forces the int32 epoch counter through its wrap and
// requires dedup to stay correct — the property a long-lived streaming
// index depends on.
func TestEpochSetWrap(t *testing.T) {
	var s EpochSet
	s.Extend(2)
	s.Begin()
	s.Seen(0)
	s.epoch = -1 // next Begin wraps to 0 and must reset
	s.Begin()
	if s.Seen(0) {
		t.Fatal("stale stamp survived the epoch wrap")
	}
}

// TestIndexScanOrder pins the candidate iteration order against the
// batch clusterer's: hash-function order first, insertion order within
// a bucket, each candidate visited once.
func TestIndexScanOrder(t *testing.T) {
	x := NewIndex()
	// Three ids: 0 and 1 share sig under hash 0; 1 and 2 share under
	// hash 1; id 1 is reachable through both and must appear once, at
	// its first (hash 0) position.
	x.Add([]uint64{10, 20})
	x.Add([]uint64{10, 30})
	x.Add([]uint64{11, 30})
	var order []int
	got := x.Scan([]uint64{10, 30}, func(id int) bool {
		order = append(order, id)
		return false
	})
	if got != -1 {
		t.Fatalf("Scan accepted %d with an always-false probe", got)
	}
	want := []int{0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("visited %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("visited %v, want %v", order, want)
		}
	}
	// Early exit: accepting the first candidate stops the scan.
	count := 0
	if got := x.Scan([]uint64{10, 30}, func(id int) bool { count++; return true }); got != 0 || count != 1 {
		t.Fatalf("early-exit scan returned %d after %d probes", got, count)
	}
}

// TestIndexScanAllocs pins the per-read candidate scan as
// allocation-free — the streaming engine's per-read hot path.
func TestIndexScanAllocs(t *testing.T) {
	x := NewIndex()
	r := rng.New(2)
	signer := Signer{Q: 12, NumHashes: 4}
	sigs := make([]uint64, 4)
	for i := 0; i < 200; i++ {
		signer.Into(randomSeq(r, 150), sigs)
		x.Add(sigs)
	}
	probe := func(id int) bool { return false }
	avg := testing.AllocsPerRun(100, func() {
		x.Scan(sigs, probe)
	})
	if avg != 0 {
		t.Errorf("Scan allocates %.1f per call, want 0", avg)
	}
}

// TestIndexResetScanOrder pins Reset: an index filled, reset and
// refilled scans every query's candidates in exactly the order a fresh
// index holding only the refill does, and never surfaces an id of the
// earlier fill. Signature values come from a small alphabet so buckets
// hold long chains and most queries reach many candidates.
func TestIndexResetScanOrder(t *testing.T) {
	r := rng.New(3)
	const hashes = 4
	sigSet := func(n int) [][]uint64 {
		out := make([][]uint64, n)
		for i := range out {
			out[i] = make([]uint64, hashes)
			for h := range out[i] {
				out[i][h] = uint64(r.Intn(8))
			}
		}
		return out
	}
	reused := NewIndex()
	for _, sigs := range sigSet(300) {
		reused.Add(sigs)
	}
	for _, sigs := range sigSet(50) {
		reused.Scan(sigs, func(int) bool { return false }) // advance the epoch
	}
	reused.Reset()
	fresh := NewIndex()
	refill := sigSet(120)
	for i, sigs := range refill {
		if a, b := reused.Add(sigs), fresh.Add(sigs); a != i || b != i {
			t.Fatalf("refill id %d: reset index numbered it %d, fresh %d", i, a, b)
		}
	}
	order := func(x *Index, sigs []uint64) []int {
		var out []int
		x.Scan(sigs, func(id int) bool { out = append(out, id); return false })
		return out
	}
	reached := 0
	for qi, q := range sigSet(200) {
		got, want := order(reused, q), order(fresh, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: reset index visited %v, fresh %v", qi, got, want)
		}
		for i := range want {
			if got[i] != want[i] || got[i] >= len(refill) {
				t.Fatalf("query %d: reset index visited %v, fresh %v", qi, got, want)
			}
		}
		reached += len(want)
	}
	if reached < 200*len(refill)/4 {
		t.Fatalf("queries reached %d candidates in all: the buckets are too sparse to test order", reached)
	}
}
