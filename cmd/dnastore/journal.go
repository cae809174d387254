// Crash-consistent journal persistence. The journal is the tube's only
// durable state, so its append path follows write-ahead-log rules: an
// operation is acknowledged only after its entry is framed, appended
// and fsynced, and a crash mid-append leaves a torn tail that the next
// open detects by checksum and truncates — replay then converges to
// the exact tube of the last acknowledged operation.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dnastore"
)

// journalMagic opens every framed journal file. After it the file is a
// sequence of records: 4-byte little-endian payload length, 4-byte
// little-endian IEEE CRC32 of the payload, JSON payload. Record 0 is
// the header (seed and decay profile); every later record is one
// journalEntry appended by one acknowledged mutation.
const journalMagic = "DNAJRNL1"

// journalHeader is record 0: the tube parameters fixed at creation.
type journalHeader struct {
	Seed  uint64                 `json:"seed"`
	Decay *dnastore.DecayProfile `json:"decay,omitempty"`
}

type journal struct {
	Seed uint64
	// Decay is the tube's aging profile, fixed at journal creation:
	// the profile shapes every strand the tube ever ages, so changing
	// it mid-life would replay history under different physics.
	Decay   *dnastore.DecayProfile
	Entries []journalEntry

	path   string
	framed bool // the on-disk file already uses the framed format
}

// loadJournal reads the journal at path; fresh reports whether the
// file did not exist yet (a brand-new tube, still configurable).
// Framed journals with a torn final record — the footprint of a crash
// mid-append — are truncated back to their last whole record. Legacy
// whole-file JSON journals load as-is and are migrated to the framed
// format by their next append.
func loadJournal(path string) (j *journal, fresh bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &journal{Seed: 1, path: path}, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	switch {
	case bytes.HasPrefix(data, []byte(journalMagic)):
		j, err := parseFramed(path, data)
		return j, false, err
	case len(data) > 0 && data[0] == '{':
		legacy := struct {
			Seed    uint64                 `json:"seed"`
			Decay   *dnastore.DecayProfile `json:"decay,omitempty"`
			Entries []journalEntry         `json:"entries"`
		}{}
		if err := json.Unmarshal(data, &legacy); err != nil {
			return nil, false, fmt.Errorf("corrupt journal %s: %v", path, err)
		}
		return &journal{Seed: legacy.Seed, Decay: legacy.Decay, Entries: legacy.Entries, path: path}, false, nil
	}
	return nil, false, fmt.Errorf("corrupt journal %s: unrecognized format", path)
}

// parseFramed decodes a framed journal. A torn tail is truncated on
// disk so the bad bytes cannot shadow a later append; a bad record
// with more records after it is corruption and refuses to load.
func parseFramed(path string, data []byte) (*journal, error) {
	j := &journal{path: path, framed: true}
	off := len(journalMagic)
	sawHeader := false
	for off < len(data) {
		payload, size, err := nextRecord(data, off)
		if err != nil {
			return nil, fmt.Errorf("corrupt journal %s: %v", path, err)
		}
		if payload == nil {
			// Torn tail: the record never hit the disk whole, so the
			// operation it logged was never acknowledged. Drop it.
			if err := os.Truncate(path, int64(off)); err != nil {
				return nil, fmt.Errorf("truncating torn journal tail: %v", err)
			}
			break
		}
		if !sawHeader {
			var h journalHeader
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fmt.Errorf("corrupt journal %s: bad header: %v", path, err)
			}
			j.Seed, j.Decay = h.Seed, h.Decay
			sawHeader = true
		} else {
			var e journalEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return nil, fmt.Errorf("corrupt journal %s: bad entry: %v", path, err)
			}
			j.Entries = append(j.Entries, e)
		}
		off += size
	}
	if !sawHeader {
		// Fresh journals are created whole by an atomic rename, so a
		// framed file without a readable header was damaged, not torn.
		return nil, fmt.Errorf("corrupt journal %s: missing header record", path)
	}
	return j, nil
}

// nextRecord parses the frame at off. A nil payload with nil error
// means the frame is a torn tail: it runs past end of file, or it is
// the final record and fails its checksum — both the footprint of an
// interrupted append. A checksum failure with records after it is
// corruption instead: those bytes were once acknowledged.
func nextRecord(data []byte, off int) (payload []byte, size int, err error) {
	rest := data[off:]
	if len(rest) < 8 {
		return nil, 0, nil
	}
	n := int(binary.LittleEndian.Uint32(rest[:4]))
	sum := binary.LittleEndian.Uint32(rest[4:8])
	if n > len(rest)-8 {
		return nil, 0, nil
	}
	payload = rest[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		if len(rest) == 8+n {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("record at offset %d fails its checksum", off)
	}
	return payload, 8 + n, nil
}

// encodeFrame wraps one record payload in the length+checksum frame.
func encodeFrame(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// append journals one entry durably: framed, appended with O_APPEND
// and fsynced before the caller acknowledges the operation. A legacy
// or brand-new journal is first rewritten whole in the framed format
// through an atomic temp-file rename, so a crash at any point leaves
// either the old file or the new one, never a hybrid.
func (j *journal) append(e journalEntry) error {
	j.Entries = append(j.Entries, e)
	if !j.framed {
		return j.rewrite()
	}
	frame, err := encodeFrame(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	return writeSync(f, frame)
}

// rewrite serializes the whole journal in the framed format and
// atomically replaces the file.
func (j *journal) rewrite() error {
	var buf bytes.Buffer
	buf.WriteString(journalMagic)
	frame, err := encodeFrame(journalHeader{Seed: j.Seed, Decay: j.Decay})
	if err != nil {
		return err
	}
	buf.Write(frame)
	for _, e := range j.Entries {
		frame, err := encodeFrame(e)
		if err != nil {
			return err
		}
		buf.Write(frame)
	}
	if err := writeFileAtomic(j.path, buf.Bytes()); err != nil {
		return err
	}
	j.framed = true
	return nil
}

// writeFileAtomic writes data to a same-directory temp file, fsyncs
// it, and renames it over path.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := writeSync(tmp, data); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeSync writes data to f, fsyncs it and closes it.
func writeSync(f *os.File, data []byte) error {
	_, err := f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
