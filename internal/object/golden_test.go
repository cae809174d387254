package object

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestGetGolden pins the bytes and wet costs of the baseline store's
// whole-object retrieval: three objects of one, three and five units are
// put into one seeded store and each is read back once, in order. The
// digests and counters were recorded before Get moved onto the
// streaming engine's full-budget protocol, so a decoder change that
// alters what Get returns or what it charges fails here.
func TestGetGolden(t *testing.T) {
	s := newTestStore(t)
	objects := []struct {
		name   string
		data   []byte
		sha256 string
	}{
		{"alpha", bytes.Repeat([]byte("alpha object, one unit. "), 8),
			"39eec34cf4c33f719b38b8b45b0f373a40a349a605869c36bb53017fd7d6e635"},
		{"beta", bytes.Repeat([]byte("beta object spans three units. "), 22),
			"f58d6c8f4e2cb8c26b4b29c1b12a719643f70e3872bca945b174d48014f7036b"},
		{"gamma", bytes.Repeat([]byte("gamma: the largest of the three objects. "), 30),
			"43ac770bcf34abd6d794e478143b2d91df5df4dc3fe418afe5d4e280738cd595"},
	}
	for _, o := range objects {
		if err := s.Put(o.name, o.data); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objects {
		got, err := s.Get(o.name)
		if err != nil {
			t.Fatalf("Get(%s): %v", o.name, err)
		}
		if !bytes.Equal(got, o.data) {
			t.Errorf("Get(%s) differs from the stored object", o.name)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != o.sha256 {
			t.Errorf("Get(%s) sha256 %s, want %s", o.name, sum, o.sha256)
		}
	}
	const wantCosts = "{StrandsSynthesized:135 PrimerPairsUsed:3 PrimerPairsWasted:0 ReadsSequenced:2025 PCRReactions:3}"
	if got := fmt.Sprintf("%+v", s.Costs()); got != wantCosts {
		t.Errorf("costs %s, want %s", got, wantCosts)
	}
}
