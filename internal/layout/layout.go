// Package layout defines the physical structure of DNA strands and
// encoding units in the block-storage architecture.
//
// A strand (Figure 1a, extended by Figure 4 and Section 6.3) is laid out
// as:
//
//	[fwd primer 20] [sync A] [unit index 10] [version 1] [intra 2] [payload 96] [rev primer 20]
//
// where the unit index comes from the PCR-navigable index tree, the
// version base implements the update slots of Section 5.3 (A = original
// data, C/G/T = updates 1-3), and the 2-base intra address orders the 15
// molecules of an encoding unit in software.
//
// An encoding unit (Figure 1c, Section 6.2) is a matrix of 15 molecules
// (11 data + 4 ECC): each molecule's payload is a column, and every row of
// 4-bit symbols across the 15 columns is one RS(15,11) codeword.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/rs"
)

// ErrParse is returned when a sequence cannot be parsed as a strand.
var ErrParse = errors.New("layout: cannot parse strand")

// ErrPayloadShape is returned by UnitCodec.Decode when the payload set
// has the wrong molecule count or a payload has the wrong length.
var ErrPayloadShape = errors.New("layout: malformed unit payloads")

// ErrGeometry is wrapped by every error of Geometry.Validate.
var ErrGeometry = errors.New("layout: invalid geometry")

// Geometry fixes the field sizes of a strand.
type Geometry struct {
	StrandLen    int // total strand length in bases (paper: 150)
	PrimerLen    int // main primer length (paper: 20)
	IndexLen     int // unit index length in bases (paper: 10, sparse)
	VersionBases int // bases reserved for update versioning (paper: 1)
	IntraLen     int // intra-unit address length (paper: 2)
}

// PaperGeometry returns the wetlab configuration of Section 6.2-6.3.
func PaperGeometry() Geometry {
	return Geometry{StrandLen: 150, PrimerLen: 20, IndexLen: 10, VersionBases: 1, IntraLen: 2}
}

// syncBases is the number of synchronization bases after the forward
// primer ("One A base was added after the forward primer as a point of
// synchronization", Section 6.2).
const syncBases = 1

// Validate checks internal consistency of the geometry. The elongated
// primer (main primer, sync base and unit index) is the longest pattern
// PCR binding and primer location align, so it must fit the alignment
// kernels' dna.MaxPatternLen, and the intra address must cover a unit's
// UnitMolecules molecules. Every error wraps ErrGeometry.
func (g Geometry) Validate() error {
	if g.StrandLen <= 0 || g.PrimerLen <= 0 || g.IndexLen < 0 || g.VersionBases < 0 || g.IntraLen <= 0 {
		return fmt.Errorf("%w: non-positive field: %+v", ErrGeometry, g)
	}
	if n := g.PrimerLen + syncBases + g.IndexLen; n > dna.MaxPatternLen {
		return fmt.Errorf("%w: elongated primer of %d bases exceeds %d", ErrGeometry, n, dna.MaxPatternLen)
	}
	pb := g.PayloadBases()
	if pb <= 0 {
		return fmt.Errorf("%w: %d payload bases", ErrGeometry, pb)
	}
	if pb%4 != 0 {
		return fmt.Errorf("%w: payload bases %d not a multiple of 4", ErrGeometry, pb)
	}
	if maxIntra := 1 << (2 * uint(g.IntraLen)); maxIntra < UnitMolecules {
		return fmt.Errorf("%w: %d-base intra address covers %d of a unit's %d molecules",
			ErrGeometry, g.IntraLen, maxIntra, UnitMolecules)
	}
	return nil
}

// PayloadBases returns the number of bases available for data in one
// strand (96 in the paper's geometry).
func (g Geometry) PayloadBases() int {
	return g.StrandLen - 2*g.PrimerLen - syncBases - g.IndexLen - g.VersionBases - g.IntraLen
}

// PayloadBytes returns the per-strand data capacity in bytes (24 in the
// paper's geometry).
func (g Geometry) PayloadBytes() int { return g.PayloadBases() / 4 }

// Strand is the logical content of one DNA molecule.
type Strand struct {
	Index   dna.Seq // unit index from the index tree (g.IndexLen bases)
	Version int     // update slot: 0 = original data, 1..3 = updates
	Intra   int     // molecule position within the encoding unit
	Payload []byte  // g.PayloadBytes() bytes of (randomized) data
}

// versionBase maps a version number to its address base. Version 0 is A,
// so original data and its updates share a prefix and differ only in the
// last base (Section 5.3's ACGTA / ACGTC / ACGTG example).
func versionBase(v int) dna.Base { return dna.Base(v) }

// MaxVersions returns the number of versions addressable by the
// geometry's version bases (4 with one base: the original + 3 updates).
func (g Geometry) MaxVersions() int {
	n := 1
	for i := 0; i < g.VersionBases; i++ {
		n *= 4
	}
	return n
}

// Assemble builds the full strand sequence from its logical fields and
// the partition's primer pair.
func (g Geometry) Assemble(fwd, rev dna.Seq, s Strand) (dna.Seq, error) {
	if len(fwd) != g.PrimerLen || len(rev) != g.PrimerLen {
		return nil, fmt.Errorf("layout: primer lengths %d/%d, want %d", len(fwd), len(rev), g.PrimerLen)
	}
	if len(s.Index) != g.IndexLen {
		return nil, fmt.Errorf("layout: index length %d, want %d", len(s.Index), g.IndexLen)
	}
	if s.Version < 0 || s.Version >= g.MaxVersions() {
		return nil, fmt.Errorf("layout: version %d outside [0, %d)", s.Version, g.MaxVersions())
	}
	maxIntra := 1 << (2 * uint(g.IntraLen))
	if s.Intra < 0 || s.Intra >= maxIntra {
		return nil, fmt.Errorf("layout: intra address %d outside [0, %d)", s.Intra, maxIntra)
	}
	if len(s.Payload) != g.PayloadBytes() {
		return nil, fmt.Errorf("layout: payload %d bytes, want %d", len(s.Payload), g.PayloadBytes())
	}
	out := make(dna.Seq, 0, g.StrandLen)
	out = append(out, fwd...)
	out = append(out, dna.A) // sync base
	out = append(out, s.Index...)
	v := s.Version
	for i := g.VersionBases - 1; i >= 0; i-- {
		out = append(out, versionBase((v>>(2*uint(i)))&3))
	}
	intra := s.Intra
	for i := g.IntraLen - 1; i >= 0; i-- {
		out = append(out, dna.Base((intra>>(2*uint(i)))&3))
	}
	out = append(out, codec.BytesToBases(s.Payload)...)
	out = append(out, rev...)
	if len(out) != g.StrandLen {
		return nil, fmt.Errorf("layout: assembled %d bases, want %d", len(out), g.StrandLen)
	}
	return out, nil
}

// Parse is the strict inverse of Assemble for exact-length sequences.
// It verifies the primers and sync base and splits the remaining fields.
// Noisy reads are first error-corrected by consensus (package trace)
// before being parsed.
func (g Geometry) Parse(seq dna.Seq, fwd, rev dna.Seq) (Strand, error) {
	var s Strand
	if len(seq) != g.StrandLen {
		return s, fmt.Errorf("%w: length %d, want %d", ErrParse, len(seq), g.StrandLen)
	}
	if !seq.HasPrefix(fwd) {
		return s, fmt.Errorf("%w: forward primer mismatch", ErrParse)
	}
	if !seq.HasSuffix(rev) {
		return s, fmt.Errorf("%w: reverse primer mismatch", ErrParse)
	}
	pos := g.PrimerLen
	if seq[pos] != dna.A {
		return s, fmt.Errorf("%w: sync base is %v", ErrParse, seq[pos])
	}
	pos += syncBases
	s.Index = seq[pos : pos+g.IndexLen].Clone()
	pos += g.IndexLen
	for i := 0; i < g.VersionBases; i++ {
		s.Version = s.Version<<2 | int(seq[pos])
		pos++
	}
	for i := 0; i < g.IntraLen; i++ {
		s.Intra = s.Intra<<2 | int(seq[pos])
		pos++
	}
	payload, err := codec.BasesToBytes(seq[pos : pos+g.PayloadBases()])
	if err != nil {
		return s, fmt.Errorf("%w: %v", ErrParse, err)
	}
	s.Payload = payload
	return s, nil
}

// ElongatedPrimer returns the forward primer elongated with the sync base
// and the given index prefix (Section 4: Figure 4). A full index yields
// the 31-base primers of the wetlab experiments (20 + 1 + 10).
func (g Geometry) ElongatedPrimer(fwd dna.Seq, indexPrefix dna.Seq) dna.Seq {
	out := make(dna.Seq, 0, len(fwd)+syncBases+len(indexPrefix))
	out = append(out, fwd...)
	out = append(out, dna.A)
	out = append(out, indexPrefix...)
	return out
}

// The unit code is RS(15,11) over GF(16) (Section 6.2's wetlab
// configuration): every unit spreads over UnitMolecules molecules, of
// which UnitDataMolecules carry data and the rest RS parity.
const (
	UnitMolecules     = 15
	UnitDataMolecules = 11
	unitParity        = UnitMolecules - UnitDataMolecules
)

// sealBytes is the size of the CRC32 a unit's pad carries when the pad
// has room for it.
const sealBytes = 4

// ErrSeal is returned by UnitCodec.Decode when an RS-decoded unit fails
// its seal: the decode landed on a codeword of some other unit.
var ErrSeal = errors.New("layout: unit seal mismatch")

// UnitCodec is a partition's encoding-unit format: a block's content,
// padded to the unit size with a CRC32 seal in the pad (Section 6.2's
// "randomly padded" tail), whitened with a per-unit keystream derived
// from the partition's seed (Sections 2.1.1 and 4.4), and spread over
// the molecule payloads of one RS(15,11) unit (Figure 1c). A codec is
// immutable and safe for concurrent use.
type UnitCodec struct {
	geom Geometry
	pad  int
	rand *codec.Randomizer
}

// NewUnitCodec builds the unit codec of a partition with the given
// geometry, pad bytes per unit and whitening seed. A pad of fewer than
// 4 bytes leaves the unit unsealed.
func NewUnitCodec(g Geometry, pad int, seed uint64) (*UnitCodec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	u := &UnitCodec{
		geom: g,
		pad:  pad,
		rand: codec.NewRandomizer(seed),
	}
	if pad < 0 || pad >= u.DataBytes() {
		return nil, fmt.Errorf("layout: pad of %d bytes outside [0, %d)", pad, u.DataBytes())
	}
	return u, nil
}

// DataBytes returns the size of one unit in bytes (264 in the paper's
// geometry: 11 molecules x 24 bytes).
func (u *UnitCodec) DataBytes() int { return UnitDataMolecules * u.geom.PayloadBytes() }

// BlockSize returns the content bytes a unit holds: its size less the
// pad (256 in the paper's geometry).
func (u *UnitCodec) BlockSize() int { return u.DataBytes() - u.pad }

// Geometry returns the codec's strand geometry.
func (u *UnitCodec) Geometry() Geometry { return u.geom }

// MaxErasures returns how many molecules one decode attempt may erase.
// A sealed unit may spend the whole parity, since the seal rejects a
// decode that lands on a wrong codeword; an unsealed one keeps one
// check symbol per row to reject it instead.
func (u *UnitCodec) MaxErasures() int {
	if u.pad < sealBytes {
		return unitParity - 1
	}
	return unitParity
}

// Seal expands content (at most BlockSize bytes) to a unit, zero-padded,
// with the big-endian CRC32 of its first BlockSize bytes in the pad.
func (u *UnitCodec) Seal(content []byte) []byte {
	out := make([]byte, u.DataBytes())
	copy(out, content)
	if u.pad >= sealBytes {
		bs := u.BlockSize()
		binary.BigEndian.PutUint32(out[bs:], crc32.ChecksumIEEE(out[:bs]))
	}
	return out
}

// sealed reports whether a unit's seal matches its content; an unsealed
// codec accepts every unit.
func (u *UnitCodec) sealed(unit []byte) bool {
	bs := u.BlockSize()
	return u.pad < sealBytes || binary.BigEndian.Uint32(unit[bs:]) == crc32.ChecksumIEEE(unit[:bs])
}

// whitener returns the keystream of one (block, version) unit, so
// identical content in different units whitens differently.
func (u *UnitCodec) whitener(block, version int) *codec.Randomizer {
	return u.rand.Derive(uint64(block)<<8 | uint64(version))
}

// nibble returns 4-bit symbol r of a payload, high nibble first.
func nibble(p []byte, r int) byte {
	return p[r/2] >> (4 * uint(1-r%2)) & 0x0f
}

// Encode whitens exactly DataBytes() of sealed unit bytes with the
// (block, version) keystream and maps them to the unit's molecule
// payloads, column-major as in Figure 1c: molecule j holds whitened
// bytes [j*P, (j+1)*P), and the parity molecules hold the RS parity of
// each row of 4-bit symbols.
func (u *UnitCodec) Encode(block, version int, unit []byte) ([][]byte, error) {
	if len(unit) != u.DataBytes() {
		return nil, fmt.Errorf("layout: unit data %d bytes, want %d", len(unit), u.DataBytes())
	}
	white := append([]byte(nil), unit...)
	u.whitener(block, version).Apply(white)
	perMol := u.geom.PayloadBytes()
	parity := make([]byte, unitParity*perMol)
	out := make([][]byte, UnitMolecules)
	for j := range out {
		if j < UnitDataMolecules {
			out[j] = white[j*perMol : (j+1)*perMol]
		} else {
			out[j] = parity[(j-UnitDataMolecules)*perMol : (j-UnitDataMolecules+1)*perMol]
		}
	}
	var word [UnitMolecules]byte
	for r := 0; r < 2*perMol; r++ {
		for j := range word[:UnitDataMolecules] {
			word[j] = nibble(out[j], r)
		}
		rs.Encode(&word)
		for j := UnitDataMolecules; j < UnitMolecules; j++ {
			out[j][r/2] |= word[j] << (4 * uint(1-r%2))
		}
	}
	return out, nil
}

// Decode recovers the (block, version) unit from its molecule payloads:
// RS decoding row by row, de-whitening and the seal check. A nil
// payload marks a lost molecule (erasure); an attempt may erase at most
// MaxErasures molecules, and fewer erasures leave room to correct
// symbol errors. The corrected count reports how many data symbols the
// RS code changed, an erased one counting when its value is not 0.
// Errors wrap ErrPayloadShape for a misshapen payload set,
// rs.ErrTooManyErrors for an uncorrectable row or too many erasures,
// and ErrSeal for a decode the seal rejects.
func (u *UnitCodec) Decode(block, version int, payloads [][]byte) (unit []byte, corrected int, err error) {
	if len(payloads) != UnitMolecules {
		return nil, 0, fmt.Errorf("%w: %d payloads, want %d", ErrPayloadShape, len(payloads), UnitMolecules)
	}
	perMol := u.geom.PayloadBytes()
	var erased uint16
	for j, p := range payloads {
		switch {
		case p == nil:
			erased |= 1 << j
		case len(p) != perMol:
			return nil, 0, fmt.Errorf("%w: payload %d has %d bytes, want %d", ErrPayloadShape, j, len(p), perMol)
		}
	}
	if ne := bits.OnesCount16(erased); ne > u.MaxErasures() {
		return nil, 0, fmt.Errorf("layout: %d erasures, at most %d: %w", ne, u.MaxErasures(), rs.ErrTooManyErrors)
	}
	out := make([]byte, u.DataBytes())
	for r := 0; r < 2*perMol; r++ {
		var word [UnitMolecules]byte
		for j, p := range payloads {
			if p != nil {
				word[j] = nibble(p, r)
			}
		}
		received := word
		if err := rs.Decode(&word, erased); err != nil {
			return nil, corrected, fmt.Errorf("layout: row %d: %w", r, err)
		}
		for j, d := range word[:UnitDataMolecules] {
			if d != received[j] {
				corrected++
			}
			out[j*perMol+r/2] |= d << (4 * uint(1-r%2))
		}
	}
	u.whitener(block, version).Apply(out)
	if !u.sealed(out) {
		return nil, corrected, ErrSeal
	}
	return out, corrected, nil
}

// --- Figure 3 analytics -------------------------------------------------

// CapacityPoint is one point of the Figure 3 curves: the storage capacity
// and information density of a single partition as a function of index
// length.
type CapacityPoint struct {
	IndexLen          int
	CapacityLog2Bytes float64 // log2 of partition capacity in bytes
	BitsPerBase       float64 // information density over the whole strand
}

// Capacity computes the Figure 3 point for a partition with the given
// strand and primer lengths at index length L. When the index consumes
// the entire usable region, capacity follows the presence-bit design
// described in Section 3 (one bit per possible address).
func Capacity(strandLen, primerLen, indexLen int) (CapacityPoint, error) {
	usable := strandLen - 2*primerLen - syncBases
	if usable <= 0 {
		return CapacityPoint{}, fmt.Errorf("layout: primers leave no usable bases")
	}
	if indexLen < 0 || indexLen > usable {
		return CapacityPoint{}, fmt.Errorf("layout: index length %d outside [0, %d]", indexLen, usable)
	}
	payload := usable - indexLen
	p := CapacityPoint{IndexLen: indexLen}
	if payload > 0 {
		// 4^L addresses, each holding 2*payload bits.
		p.CapacityLog2Bytes = 2*float64(indexLen) + math.Log2(float64(payload)*2.0/8.0)
		p.BitsPerBase = 2 * float64(payload) / float64(strandLen)
	} else {
		// Presence-bit design: the existence of each of the 4^L addresses
		// encodes one bit.
		p.CapacityLog2Bytes = 2*float64(indexLen) - 3
		p.BitsPerBase = 1 / float64(strandLen)
	}
	return p, nil
}

// CapacityCurve returns Figure 3's series for index lengths 0..max for
// the given primer length.
func CapacityCurve(strandLen, primerLen int) ([]CapacityPoint, error) {
	usable := strandLen - 2*primerLen - syncBases
	if usable <= 0 {
		return nil, fmt.Errorf("layout: primers leave no usable bases")
	}
	out := make([]CapacityPoint, 0, usable+1)
	for l := 0; l <= usable; l++ {
		p, err := Capacity(strandLen, primerLen, l)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// DensityLoss returns the fractional information-density cost of
// spending extra index bases on a strand of the given length, versus a
// minimal dense index, expressed as extra bases over the strand length —
// the paper's convention (Section 4.3: 5 extra bases on 150-base strands
// is a "3% information density loss"; 0.3% on 1500-base strands).
func DensityLoss(strandLen, primerLen, denseIndexLen, sparseIndexLen int) float64 {
	return float64(sparseIndexLen-denseIndexLen) / float64(strandLen)
}

// PrimerDensityLoss returns the payload lost to lengthening both main
// primers, relative to the longer-primer payload (Section 4.3: 30-base
// primers on 150-base strands cost ~22%).
func PrimerDensityLoss(strandLen, shortPrimer, longPrimer int) float64 {
	short := float64(strandLen - 2*shortPrimer - syncBases)
	long := float64(strandLen - 2*longPrimer - syncBases)
	return (short - long) / long
}
