package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// CPU time per layer comes from the traced run's runtime/pprof CPU
// profile: each sample is charged to the innermost frame that belongs
// to a layer, so helpers (alignment kernels in dna, cluster probes,
// worker fan-out in parallel, allocation inside runtime) count toward
// the layer that called them. Samples with no layer frame at all are
// the runtime's own work: garbage collection and scheduling.

// cpuLayers lists the layers whose CPU time the traced run reports. The
// first six are packages of the repository. "other" collects the
// blockstore front-end (planning, primer charging, assembly: well under
// 1% of a read, too little for a profile to sample reliably), the decay
// and fault hooks, and the benchmark's own wrappers and oracle.
var cpuLayers = []string{"pcr", "binding", "seqsim", "streamdecode", "decode", "pool", "runtime", "other"}

// frameLayer returns the layer of one function name, or "" for a
// helper frame: every other package of the repository (dna, cluster,
// sketch, trace, rs, layout, channel, parallel, ...) and the runtime
// serve whichever layer called them.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "dnastore/internal/"); ok {
		switch pkg, _, _ := strings.Cut(rest, "."); pkg {
		case "blockstore", "decay", "fault":
			return "other"
		default:
			if slices.Contains(cpuLayers[:6], pkg) {
				return pkg
			}
			return ""
		}
	}
	if strings.HasPrefix(fn, "main.") {
		return "other" // the benchmark's own wrappers and oracle
	}
	return ""
}

// profileLayers decodes a gzipped pprof CPU profile and returns CPU
// nanoseconds per layer.
func profileLayers(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function -> string table index
		strs    []string
	)
	err = eachField(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					vals, err = appendVarints(vals, wire, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.ns = int64(vals[len(vals)-1]) // [samples, cpu nanoseconds]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					if l := frameLayer(strs[i]); l != "" {
						layer = l
						break walk
					}
				}
			}
		}
		out[layer] += s.ns
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, passing varint fields as v and
// length-delimited fields as b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		tag, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
