package blockstore

import (
	"bytes"
	"errors"
	"testing"

	"dnastore/internal/decode"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/primer"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// newTestStore builds a store over a freshly searched primer library.
func newTestStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(1234), 8, 400000)
	if lib.Len() < 4 {
		t.Fatalf("primer search found only %d primers", lib.Len())
	}
	s, err := New(cfg, lib.Primers())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TreeDepth = 3 // 64 blocks: keeps integration tests fast
	cfg.Geometry.IndexLen = 6
	// 150 - 40 - 1 - 6 - 1 - 2 = 100 payload bases = 25 bytes/molecule;
	// unit = 275 bytes; block = 267 with pad 8.
	return cfg
}

func TestNewValidation(t *testing.T) {
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(5), 4, 200000)
	primers := lib.Primers()

	cfg := testConfig()
	cfg.TreeDepth = 0
	if _, err := New(cfg, primers); err == nil {
		t.Error("zero depth accepted")
	}
	cfg = testConfig()
	cfg.Geometry.IndexLen = 10 // depth 3 sparse needs 6
	if _, err := New(cfg, primers); err == nil {
		t.Error("mismatched index length accepted")
	}
	cfg = testConfig()
	if _, err := New(cfg, primers[:1]); err == nil {
		t.Error("single primer accepted")
	}
	// 58 + 1 sync + 6 index = a 65-base elongated primer, one past the
	// alignment kernels' word; the payload (100 bases) is otherwise valid.
	cfg = testConfig()
	cfg.Geometry.PrimerLen, cfg.Geometry.StrandLen = 58, 226
	if _, err := New(cfg, primers); !errors.Is(err, layout.ErrGeometry) {
		t.Errorf("65-base elongated primer: %v, want layout.ErrGeometry", err)
	}
	cfg = testConfig()
	cfg.CoverageDepth = 0
	if _, err := New(cfg, primers); err == nil {
		t.Error("zero coverage accepted")
	}
	cfg = testConfig()
	cfg.CapacityFactor = 1
	if _, err := New(cfg, primers); err == nil {
		t.Error("capacity factor 1 accepted")
	}
}

// TestNewRejectsNegativeDecodeTolerance: a negative primer tolerance
// would discard every read and a negative index tolerance would resolve
// no index, so New refuses both with the decoder's typed error.
func TestNewRejectsNegativeDecodeTolerance(t *testing.T) {
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(5), 4, 200000)
	primers := lib.Primers()
	for _, c := range []struct {
		name string
		set  func(*decode.Config)
	}{
		{"MaxPrimerDist", func(d *decode.Config) { d.MaxPrimerDist = -1 }},
		{"MaxIndexDist", func(d *decode.Config) { d.MaxIndexDist = -1 }},
	} {
		cfg := testConfig()
		c.set(&cfg.Decode)
		if _, err := New(cfg, primers); !errors.Is(err, decode.ErrConfig) {
			t.Errorf("negative %s: %v, want decode.ErrConfig", c.name, err)
		}
	}
}

func TestCreatePartition(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Blocks() != 64 || p.BlockSize() != 267 {
		t.Errorf("partition shape: %d blocks, %d block size", p.Blocks(), p.BlockSize())
	}
	if _, err := s.CreatePartition("alice"); err == nil {
		t.Error("duplicate name accepted")
	}
	q, err := s.CreatePartition("bob")
	if err != nil {
		t.Fatal(err)
	}
	fa, ra := p.Primers()
	fb, rb := q.Primers()
	if fa.Equal(fb) || ra.Equal(rb) {
		t.Error("partitions share primers")
	}
	if p.Tree().Seed() == q.Tree().Seed() {
		t.Error("partitions share tree seeds (Section 4.4 violation)")
	}
	if got, ok := s.Partition("alice"); !ok || got != p {
		t.Error("Partition lookup failed")
	}
	if s.Costs().PrimerPairsUsed != 2 {
		t.Errorf("primer pairs used %d", s.Costs().PrimerPairsUsed)
	}
}

func TestPrimerBudgetExhaustion(t *testing.T) {
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(5), 4, 400000)
	s, err := New(testConfig(), lib.Primers()[:4])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreatePartition("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreatePartition("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreatePartition("c"); !errors.Is(err, ErrNoPrimers) {
		t.Errorf("expected ErrNoPrimers, got %v", err)
	}
}

func TestWriteReadBlockRoundTrip(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("block fifty-one content. "), 10) // 250 bytes
	if err := p.WriteBlock(51, content); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlock(51)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(content)], content) {
		t.Fatal("read content differs from written content")
	}
	if s.Costs().StrandsSynthesized != 15 {
		t.Errorf("strands synthesized %d want 15", s.Costs().StrandsSynthesized)
	}
	if s.Costs().ReadsSequenced == 0 || s.Costs().PCRReactions == 0 {
		t.Error("no physical costs recorded for a read")
	}
}

func TestWriteValidation(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	if err := p.WriteBlock(-1, []byte("x")); !errors.Is(err, ErrBlockRange) {
		t.Errorf("negative block: %v", err)
	}
	if err := p.WriteBlock(64, []byte("x")); !errors.Is(err, ErrBlockRange) {
		t.Errorf("out-of-range block: %v", err)
	}
	big := make([]byte, p.BlockSize()+1)
	if err := p.WriteBlock(0, big); !errors.Is(err, ErrBlockSize) {
		t.Errorf("oversize data: %v", err)
	}
	if err := p.WriteBlock(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(0, []byte("again")); err == nil {
		t.Error("double write accepted (DNA is append-only)")
	}
}

func TestReadUnwrittenBlock(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	if _, err := p.ReadBlock(5); !errors.Is(err, ErrBlockNotFound) {
		t.Errorf("unwritten block: %v", err)
	}
}

func TestUpdateBlockSingle(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	content := []byte("the quick brown fox jumps over the lazy dog")
	if err := p.WriteBlock(7, content); err != nil {
		t.Fatal(err)
	}
	patch := update.Patch{DeleteStart: 4, DeleteCount: 5, InsertPos: 4, Insert: []byte("slow ")}
	if err := p.UpdateBlock(7, patch); err != nil {
		t.Fatal(err)
	}
	if p.Versions(7) != 1 {
		t.Errorf("versions %d want 1", p.Versions(7))
	}
	got, err := p.ReadBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("the slow  brown fox")) {
		t.Errorf("patched content %q", got[:30])
	}
}

func TestUpdateBlockSequence(t *testing.T) {
	// Two updates fit the direct slots; both apply in order.
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	if err := p.WriteBlock(3, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(3, update.Patch{InsertPos: 0, Insert: []byte("bb")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(3, update.Patch{DeleteStart: 0, DeleteCount: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	// Update 1 prepends "bb"; update 2 deletes one byte: "baaaa".
	if !bytes.HasPrefix(got, []byte("baaaa")) {
		t.Errorf("content after two updates: %q", got[:8])
	}
}

func TestUpdateOverflowChain(t *testing.T) {
	// Updates 3+ overflow into a log block addressed from the top of the
	// address space (Section 5.3's pointer mechanism).
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	if err := p.WriteBlock(10, []byte("0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		patch := update.Patch{InsertPos: 0, Insert: []byte{byte('a' + i)}}
		if err := p.UpdateBlock(10, patch); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	got, err := p.ReadBlock(10)
	if err != nil {
		t.Fatal(err)
	}
	// Inserts at position 0 stack in reverse: "edcba0...".
	if !bytes.HasPrefix(got, []byte("edcba0")) {
		t.Errorf("content after 5 updates: %q", got[:8])
	}
}

func TestUpdateUnwritten(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	err := p.UpdateBlock(1, update.Patch{Insert: []byte("x")})
	if !errors.Is(err, ErrBlockNotFound) {
		t.Errorf("update of unwritten block: %v", err)
	}
}

func TestReadRange(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	var want [][]byte
	for b := 8; b <= 13; b++ {
		content := bytes.Repeat([]byte{byte(b)}, 32)
		want = append(want, content)
		if err := p.WriteBlock(b, content); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.ReadRange(8, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("range returned %d blocks", len(got))
	}
	for i, g := range got {
		if !bytes.Equal(g[:32], want[i]) {
			t.Errorf("range block %d content mismatch", 8+i)
		}
	}
	if _, err := p.ReadRange(13, 8); !errors.Is(err, ErrBlockRange) {
		t.Errorf("inverted range: %v", err)
	}
}

func TestSequentialWriteReadAll(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	data := bytes.Repeat([]byte("sequential access to consecutive data blocks. "), 20) // ~940B -> 4 blocks
	n, err := p.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != (len(data)+p.BlockSize()-1)/p.BlockSize() {
		t.Errorf("blocks written %d", n)
	}
	blocks, err := readContent(p.Read(ReadRequest{All: true}))
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	for _, b := range blocks {
		joined = append(joined, b...)
	}
	if !bytes.Equal(joined[:len(data)], data) {
		t.Fatal("ReadAll does not reproduce written data")
	}
}

func TestWriteTooLarge(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, _ := s.CreatePartition("alice")
	huge := make([]byte, p.Blocks()*p.BlockSize()+1)
	if _, err := p.Write(huge); !errors.Is(err, ErrBlockSize) {
		t.Errorf("oversized write: %v", err)
	}
}

func TestIsolationBetweenPartitions(t *testing.T) {
	// Reading from one partition must not surface another partition's
	// data even though both share the tube.
	s := newTestStore(t, testConfig())
	a, _ := s.CreatePartition("a")
	b, _ := s.CreatePartition("b")
	if err := a.WriteBlock(1, []byte("partition A data")); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBlock(1, []byte("partition B data")); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("partition A data")) {
		t.Errorf("partition A read returned %q", got[:16])
	}
	got, err = b.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("partition B data")) {
		t.Errorf("partition B read returned %q", got[:16])
	}
}

func TestElongatedPrimerShape(t *testing.T) {
	cfg := DefaultConfig() // paper geometry, depth 5
	s := newTestStore(t, cfg)
	p, _ := s.CreatePartition("alice")
	ep, err := p.ElongatedPrimer(531)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep) != 31 {
		t.Errorf("elongated primer length %d want 31 (Section 6.5)", len(ep))
	}
	fwd, _ := p.Primers()
	if !ep.HasPrefix(fwd) {
		t.Error("elongated primer must extend the main primer")
	}
	if _, err := p.ElongatedPrimer(-1); err == nil {
		t.Error("negative block accepted")
	}
}

func TestDenseVariantStore(t *testing.T) {
	// The prior-work baseline configuration: dense indexes, depth 6 for a
	// 6-base index field.
	cfg := testConfig()
	cfg.Variant = indextree.Dense
	cfg.TreeDepth = 6
	cfg.Geometry.IndexLen = 6
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("baseline")
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("dense baseline content")
	if err := p.WriteBlock(9, content); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlock(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, content) {
		t.Fatal("dense variant round trip failed")
	}
}
