package rs

import "testing"

// FuzzRSDecode encodes fuzzed data, applies fuzzed symbol errors and a
// fuzzed erasure mask (bits past position 14 included), and decodes.
// Decode must never panic, and must refuse a mask with bits past
// position 14 with an error that leaves the word alone. Whenever
// 2*errors + erasures <= 4 it must return the original codeword.
// Beyond that radius a bounded-distance decoder may still land on a
// neighboring codeword, so any other word it returns must be a codeword
// within the correction radius of the received word left by the
// erasures.
func FuzzRSDecode(f *testing.F) {
	f.Add([]byte("hello world"), []byte{}, uint16(0), false)
	f.Add([]byte{1, 2, 3}, []byte{3, 7, 9, 1}, uint16(0), false)
	f.Add([]byte{1, 2, 3}, []byte{3, 7}, uint16(1<<5|1<<11), true)
	f.Add([]byte{}, []byte{0, 1, 1, 1, 2, 1}, uint16(0), false)
	f.Add([]byte{9}, []byte{}, uint16(1<<3|1<<15), false)
	f.Add([]byte("eleven data"), []byte{4, 200, 30, 17}, uint16(1<<1|1<<2|1<<3|1<<14), true)
	f.Fuzz(func(t *testing.T, data, errs []byte, erased uint16, zeroErased bool) {
		var word [n]byte
		for i := range word[:k] {
			if i < len(data) {
				word[i] = data[i] & 15
			}
		}
		Encode(&word)
		recv := word
		for i := 0; i+1 < len(errs); i += 2 {
			recv[int(errs[i])%n] ^= byte(1 + int(errs[i+1])%15)
		}
		if zeroErased {
			for i := range recv {
				if erased>>i&1 != 0 {
					recv[i] = 0
				}
			}
		}
		got := recv
		err := Decode(&got, erased)
		if erased>>n != 0 {
			if err == nil || got != recv {
				t.Fatalf("mask %#x past position 14: %v, word %v", erased, err, got)
			}
			return
		}
		nerased := 0
		for i := range recv {
			if erased>>i&1 != 0 {
				nerased++
			}
		}
		nerrors := distance(recv, word, erased)
		if 2*nerrors+nerased <= parity {
			if err != nil || got != word {
				t.Fatalf("%d errors, %d erasures within 4: %v, decoded %v, want %v", nerrors, nerased, err, got, word)
			}
			return
		}
		if err != nil {
			if got != recv {
				t.Fatalf("refused decode changed %v to %v", recv, got)
			}
			return
		}
		if got == word {
			return
		}
		alt := got
		Encode(&alt)
		if alt != got {
			t.Fatalf("decoded %v is not a codeword", got)
		}
		if dist := distance(recv, got, erased); 2*dist+nerased > parity {
			t.Fatalf("decoded %v: %d errors from the received word with %d erasures, beyond 4", got, dist, nerased)
		}
	})
}
