package layout

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
)

// TestUnitFormatPin pins the unit format byte for byte: SHA-256 over
// the 15 payloads that Seal and Encode produce for a few (block,
// version, content) units, with the paper's 8-byte sealed pad and with
// no pad. They are the bytes every written tube holds, so a change to
// the CRC, the whitening stream or the RS layout fails here before it
// moves a tube digest. Each unit must also decode to itself, and with a
// seal, a content byte flipped under re-encoded parity must fail the
// seal.
func TestUnitFormatPin(t *testing.T) {
	full := make([]byte, 264)
	for i := range full {
		full[i] = byte(i*7 + 3)
	}
	type unit struct {
		block, version int
		content        []byte
		digest         string
	}
	for _, tc := range []struct {
		pad   int
		units []unit
	}{
		{8, []unit{
			{0, 0, []byte("hello, unit"), "c829f4a82fe0b5d1aedfb297cc43dfab38ab8bfb9ad58f000734a481054f6835"},
			{531, 1, full[:256], "43ae4361b8744ea4ff18acfb5cebfc5307b9a4a2921be582f7cad65fa3867dce"},
			{1023, 3, nil, "64e6daeb24ccc30b30d11f7a0c8a3c2420e17eea3d0c660883407d11d6cdfea8"},
			{7, 2, full[:100], "c514502949ffc64954eb7fd9c3b32ec9841e668aa279f9a05fab6f3e9d1761b1"},
		}},
		{0, []unit{
			{0, 0, []byte("hello, unit"), "bdaa72b24dc58e99bca966a72495ee800eb4a05afc2b0c1c45fdc486c6977560"},
			{531, 1, full, "eea0a9997dddf2db3b95ed59288232e468fe50fca95001e14b181363e891f80d"},
			{1023, 3, nil, "30d0f415afc34cd339516d97a9e982be99d24d7f4a5640b47ff44b039853de51"},
			{7, 2, full[:100], "417c3c98208fe67214ac21c4ea6f52b3d84e5bc388f7f50b4a82f55a2a6e5573"},
		}},
	} {
		u, err := NewUnitCodec(PaperGeometry(), tc.pad, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tc.units {
			sealed := u.Seal(c.content)
			payloads, err := u.Encode(c.block, c.version, sealed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, p := range payloads {
				h.Write(p)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("pad %d, block %d version %d: payload digest %s, want %s", tc.pad, c.block, c.version, got, c.digest)
			}
			got, _, err := u.Decode(c.block, c.version, payloads)
			if err != nil || !bytes.Equal(got, sealed) {
				t.Errorf("pad %d, block %d version %d: round trip failed (%v)", tc.pad, c.block, c.version, err)
			}

			flipped := append([]byte(nil), sealed...)
			flipped[5] ^= 0x40
			payloads, err = u.Encode(c.block, c.version, flipped)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err = u.Decode(c.block, c.version, payloads)
			if tc.pad >= 4 {
				if !errors.Is(err, ErrSeal) || got != nil {
					t.Errorf("pad %d, block %d version %d: flipped content byte decoded (%v), want ErrSeal",
						tc.pad, c.block, c.version, err)
				}
			} else if err != nil || !bytes.Equal(got, flipped) {
				t.Errorf("pad %d, block %d version %d: unsealed unit with a flipped byte: %v", tc.pad, c.block, c.version, err)
			}
		}
	}
}
