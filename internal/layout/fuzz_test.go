package layout

import (
	"bytes"
	"errors"
	"testing"

	"dnastore/internal/rs"
)

// FuzzUnitDecode encodes fuzzed data into a unit, erases the molecules
// a fuzzed bit mask selects, optionally truncates or lengthens one
// surviving payload, and decodes, with the paper's sealed codec or an
// unsealed one. Decode must never panic, must fail only with
// ErrPayloadShape or rs.ErrTooManyErrors, and must never return bytes
// other than the encoded data with a nil error. With at most
// MaxErasures erasures and no length damage it must return the data.
func FuzzUnitDecode(f *testing.F) {
	f.Add([]byte("unit payload"), []byte{}, uint8(0), uint16(0), false)
	f.Add([]byte{1, 2, 3}, []byte{0x0f}, uint8(0), uint16(0), false)                 // 4 erasures: the RS limit
	f.Add([]byte{1, 2, 3}, []byte{0x1f}, uint8(0), uint16(0), false)                 // 5 erasures
	f.Add([]byte{9, 9}, []byte{0x01, 0x40}, uint8(3), uint16(10), false)             // truncated payload
	f.Add([]byte{9, 9}, []byte{}, uint8(14), uint16(40), false)                      // lengthened parity payload
	f.Add([]byte("an unsealed unit"), []byte{0x00, 0x78}, uint8(0), uint16(0), true) // 4 erasures: past the unsealed limit
	sealed, err := NewUnitCodec(PaperGeometry(), 8, 1)
	if err != nil {
		f.Fatal(err)
	}
	bare, err := NewUnitCodec(PaperGeometry(), 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed, mask []byte, damageAt uint8, resize uint16, unsealed bool) {
		u := sealed
		if unsealed {
			u = bare
		}
		perMol := u.Geometry().PayloadBytes()
		data := make([]byte, u.BlockSize())
		for i := range data {
			if len(seed) > 0 {
				data[i] = seed[i%len(seed)] + byte(i/len(seed))
			}
		}
		data = u.Seal(data)
		payloads, err := u.Encode(3, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		erased := 0
		for j := range payloads {
			if j/8 < len(mask) && mask[j/8]&(1<<(j%8)) != 0 {
				payloads[j] = nil
				erased++
			}
		}
		damaged := false
		if j := int(damageAt) % UnitMolecules; resize != 0 && payloads[j] != nil {
			if size := int(resize) % (2*perMol + 1); size != perMol {
				p := payloads[j]
				if size < perMol {
					payloads[j] = p[:size]
				} else {
					payloads[j] = append(p, make([]byte, size-perMol)...)
				}
				damaged = true
			}
		}

		got, _, err := u.Decode(3, 1, payloads)
		if err != nil {
			if !errors.Is(err, ErrPayloadShape) && !errors.Is(err, rs.ErrTooManyErrors) {
				t.Fatalf("untyped error: %v", err)
			}
			if !damaged && erased <= u.MaxErasures() {
				t.Fatalf("%d erasures within the budget of %d, no length damage: %v", erased, u.MaxErasures(), err)
			}
			return
		}
		if damaged {
			t.Fatal("misshapen payload decoded without error")
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d erasures: decoded bytes differ from the encoded data with a nil error", erased)
		}
	})
}
