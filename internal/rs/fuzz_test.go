package rs

import (
	"bytes"
	"testing"

	"dnastore/internal/gf"
)

// FuzzRSDecode encodes fuzzed data, applies fuzzed symbol errors and
// erasure positions (duplicates and out-of-range ones included), and
// decodes. Decode must never panic. Whenever every erasure position is
// in range and 2*errors + erasures <= n-k it must return the original
// data. Beyond that radius a bounded-distance decoder may still land on
// a neighboring codeword, so any data it returns must re-encode to a
// codeword that is itself a legitimate decoding of the received word:
// within the correction radius left by the erasures.
func FuzzRSDecode(f *testing.F) {
	f.Add([]byte("hello world"), []byte{}, []byte{}, false, false)
	f.Add([]byte{1, 2, 3}, []byte{3, 7, 9, 1}, []byte{}, false, false)
	f.Add([]byte{1, 2, 3}, []byte{3, 7}, []byte{5, 11}, true, false)
	f.Add([]byte{}, []byte{0, 1, 1, 1, 2, 1}, []byte{}, false, false)
	f.Add([]byte{9}, []byte{}, []byte{3, 3, 3, 0xff, 15}, false, false)
	f.Add([]byte("a wider GF(256) codeword"), []byte{4, 200, 30, 17}, []byte{1, 2, 3, 40}, true, true)
	codes := []*Code{MustNew(gf.GF16, 15, 11), MustNew(gf.GF256, 32, 20)}
	f.Fuzz(func(t *testing.T, data, errs, eras []byte, zeroErased, wide bool) {
		c := codes[0]
		if wide {
			c = codes[1]
		}
		n, k, size := c.N(), c.K(), c.field.Size()
		msg := make([]byte, k)
		for i := range msg {
			if i < len(data) {
				msg[i] = byte(int(data[i]) % size)
			}
		}
		word, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		recv := append([]byte(nil), word...)
		for i := 0; i+1 < len(errs); i += 2 {
			recv[int(errs[i])%n] ^= byte(1 + int(errs[i+1])%(size-1))
		}
		var erasures []int
		erased := make([]bool, n)
		inRange := true
		for _, b := range eras {
			pos := int(int8(b)) // negative and past-the-end positions too
			erasures = append(erasures, pos)
			if pos < 0 || pos >= n {
				inRange = false
				continue
			}
			erased[pos] = true
			if zeroErased {
				recv[pos] = 0
			}
		}
		nerased, nerrors := 0, 0
		for i := range recv {
			if erased[i] {
				nerased++
			} else if recv[i] != word[i] {
				nerrors++
			}
		}

		got, err := c.Decode(recv, erasures)
		if inRange && 2*nerrors+nerased <= n-k {
			if err != nil {
				t.Fatalf("%d errors, %d erasures within n-k=%d: %v", nerrors, nerased, n-k, err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("%d errors, %d erasures within n-k=%d: decoded %v, want %v", nerrors, nerased, n-k, got, msg)
			}
			return
		}
		if err != nil || bytes.Equal(got, msg) {
			return
		}
		if !inRange {
			t.Fatalf("out-of-range erasures %v decoded to %v", erasures, got)
		}
		alt, err := c.Encode(got)
		if err != nil {
			t.Fatalf("decoded symbols %v invalid: %v", got, err)
		}
		dist := 0
		for i := range recv {
			if !erased[i] && recv[i] != alt[i] {
				dist++
			}
		}
		if 2*dist+nerased > n-k {
			t.Fatalf("decoded %v: its codeword is %d errors from the received word with %d erasures, beyond n-k=%d",
				got, dist, nerased, n-k)
		}
	})
}
