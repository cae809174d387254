package codec

import (
	"bytes"
	"testing"
	"testing/quick"

	"dnastore/internal/dna"
)

func TestBytesBasesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		seq := BytesToBases(data)
		if len(seq) != len(data)*4 {
			return false
		}
		back, err := BasesToBytes(seq)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesToBasesKnown(t *testing.T) {
	// 0b00011011 = A C G T
	seq := BytesToBases([]byte{0x1b})
	if seq.String() != "ACGT" {
		t.Errorf("0x1b -> %q want ACGT", seq.String())
	}
	seq = BytesToBases([]byte{0x00, 0xff})
	if seq.String() != "AAAATTTT" {
		t.Errorf("got %q want AAAATTTT", seq.String())
	}
}

func TestBasesToBytesRejectsBadLength(t *testing.T) {
	if _, err := BasesToBytes(dna.MustFromString("ACG")); err == nil {
		t.Error("length 3 should fail")
	}
}

// applied returns a whitened copy of data.
func applied(r *Randomizer, data []byte) []byte {
	out := append([]byte{}, data...)
	r.Apply(out)
	return out
}

func TestRandomizerInvolution(t *testing.T) {
	r := NewRandomizer(12345)
	f := func(data []byte) bool {
		once := applied(r, data)
		twice := applied(r, once)
		return bytes.Equal(twice, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomizerWhitens(t *testing.T) {
	// A run of zero bytes should become base sequences without extreme
	// homopolymers, which is the whole point of randomization.
	r := NewRandomizer(777)
	data := make([]byte, 1000)
	whitened := applied(r, data)
	seq := BytesToBases(whitened)
	if hp := seq.MaxHomopolymer(); hp > 12 {
		t.Errorf("homopolymer run %d after randomization; keystream is not random", hp)
	}
	gc := seq.GCContent()
	if gc < 0.45 || gc > 0.55 {
		t.Errorf("GC content %v far from 0.5 after randomization", gc)
	}
}

func TestRandomizerSeedsDiffer(t *testing.T) {
	data := make([]byte, 64)
	a := applied(NewRandomizer(1), data)
	b := applied(NewRandomizer(2), data)
	if bytes.Equal(a, b) {
		t.Error("different seeds produced identical keystreams")
	}
	if NewRandomizer(5).Seed() != 5 {
		t.Error("Seed() accessor wrong")
	}
}

func TestRandomizerDeterministic(t *testing.T) {
	data := []byte("the same data every time")
	a := applied(NewRandomizer(99), data)
	b := applied(NewRandomizer(99), data)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different keystreams")
	}
}
