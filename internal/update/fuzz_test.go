package update

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzPatchDecode feeds arbitrary unit bytes through the parsers the
// block store's assembler hands decoded units to. None may panic, every
// failure must be typed (ErrPatchFormat or ErrPatchRange), a parsed
// patch must survive Marshal→Unmarshal unchanged, and applying the
// parsed patches to an arbitrary block must either fail typed or
// produce exactly the length the patches imply.
func FuzzPatchDecode(f *testing.F) {
	valid, _ := Patch{DeleteStart: 2, DeleteCount: 3, InsertPos: 1, Insert: []byte("abc")}.Marshal(16)
	ptr, _ := MarshalOverflow(63, 16)
	f.Add(valid, []byte("hello, patched world"))
	f.Add(ptr, []byte("x"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0}, []byte("abc"))
	f.Add([]byte{0, 0, 0, 9, 'a'}, []byte("abc"))
	f.Add([]byte{255, 255, 255, 255}, bytes.Repeat([]byte{7}, 300))
	f.Add([]byte{0, 1, 0, 1, 'z', 1, 0, 2, 0, 0, 0, 0, 0}, []byte("two patches"))
	f.Fuzz(func(t *testing.T, data, block []byte) {
		if n, ok := IsOverflow(data); ok {
			if n < 0 || len(data) < 8 {
				t.Fatalf("overflow pointer %d from %d bytes", n, len(data))
			}
		}
		// Parse data as a run of back-to-back patches.
		var patches []Patch
		for rest := data; len(rest) > 0 && len(patches) < 8; {
			p, err := Unmarshal(rest)
			if err != nil {
				if !errors.Is(err, ErrPatchFormat) {
					t.Fatalf("Unmarshal error not ErrPatchFormat: %v", err)
				}
				break
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("parsed patch %+v invalid: %v", p, err)
			}
			wire, err := p.Marshal(headerLen + len(p.Insert))
			if err != nil {
				t.Fatalf("Marshal of parsed patch %+v: %v", p, err)
			}
			again, err := Unmarshal(wire)
			if err != nil || again.DeleteStart != p.DeleteStart || again.DeleteCount != p.DeleteCount ||
				again.InsertPos != p.InsertPos || !bytes.Equal(again.Insert, p.Insert) {
				t.Fatalf("round trip %+v -> %+v (%v)", p, again, err)
			}
			patches = append(patches, p)
			rest = rest[headerLen+len(p.Insert):]
		}
		out, err := ApplyAll(block, patches)
		if err != nil {
			if !errors.Is(err, ErrPatchRange) && !errors.Is(err, ErrPatchFormat) {
				t.Fatalf("ApplyAll error untyped: %v", err)
			}
			return
		}
		want := len(block)
		for _, p := range patches {
			want += len(p.Insert) - p.DeleteCount
		}
		if len(out) != want {
			t.Fatalf("ApplyAll produced %d bytes, patches imply %d", len(out), want)
		}
	})
}
