package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalFrames drives the framed-journal decoder with damaged
// files. A journal is built from fuzz entries, cut at a fuzz offset
// and, when mask is nonzero, has the byte at a fuzz position XORed with
// mask. parseFramed must then return an error or a prefix of the
// written entries under the written header: it must never panic and
// never yield an entry that was not written. A load that succeeded
// leaves the file truncated to its whole records, so loading it again
// must give the same entries.
func FuzzJournalFrames(f *testing.F) {
	f.Add(uint64(1), []byte("block zero"), []byte("v1 "), uint8(3), uint(1<<20), uint(0), byte(0))
	f.Add(uint64(7), []byte("x"), []byte{}, uint8(2), uint(40), uint(0), byte(0))
	f.Add(uint64(9), []byte("payload"), []byte("patch"), uint8(4), uint(1<<20), uint(30), byte(0xff))
	f.Add(uint64(2), []byte{}, []byte("tail"), uint8(1), uint(1<<20), uint(9), byte(0x01))
	f.Fuzz(func(t *testing.T, seed uint64, data, insert []byte, count uint8, cut, flip uint, mask byte) {
		ops := []string{"create", "write", "update", "advance", "scrub"}
		entries := make([]journalEntry, int(count%6))
		for i := range entries {
			entries[i] = journalEntry{Op: ops[i%len(ops)], Partition: "docs", Block: i, Data: data, Insert: insert, Days: float64(i)}
		}
		var file bytes.Buffer
		file.WriteString(journalMagic)
		frame, err := encodeFrame(journalHeader{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		file.Write(frame)
		for _, e := range entries {
			if frame, err = encodeFrame(e); err != nil {
				t.Fatal(err)
			}
			file.Write(frame)
		}
		raw := file.Bytes()
		raw = raw[:cut%uint(len(raw)+1)]
		if mask != 0 && len(raw) > 0 {
			raw[flip%uint(len(raw))] ^= mask
		}
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := parseFramed(path, raw)
		if err != nil {
			return
		}
		if j.Seed != seed {
			t.Fatalf("header seed %d, wrote %d", j.Seed, seed)
		}
		if len(j.Entries) > len(entries) {
			t.Fatalf("%d entries parsed, %d written", len(j.Entries), len(entries))
		}
		for i, got := range j.Entries {
			if a, b := mustJSON(t, got), mustJSON(t, entries[i]); !bytes.Equal(a, b) {
				t.Fatalf("entry %d parsed as %s, wrote %s", i, a, b)
			}
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := parseFramed(path, again)
		if err != nil {
			t.Fatalf("reload after truncation: %v", err)
		}
		if len(j2.Entries) != len(j.Entries) {
			t.Fatalf("reload gave %d entries, first load %d", len(j2.Entries), len(j.Entries))
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
