package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfTimes reads a gzipped CPU profile as written by runtime/pprof and
// returns CPU seconds by package. Each sample is charged to the innermost
// frame that belongs to a g10sim package or to the Go runtime, so standard
// library helpers (sort, container/heap, math) count toward the layer that
// called them and allocation and GC work counts as "runtime". Samples in
// the benchmark's own code (package main) count as "other".
//
// The decoder reads only the profile.proto fields it needs: samples
// (location ids and values), locations (their lines' function ids),
// functions (name string index) and the string table.
func selfTimes(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFunc = map[uint64][]uint64{} // location id -> function ids, innermost first
		funName = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	pkgOf := func(fn uint64) string {
		i := funName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return funcPackage(strs[i])
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		pkg := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFunc[loc] {
				switch p := pkgOf(fn); {
				case p == "main":
					break frames
				case p == "runtime" || strings.HasPrefix(p, "g10sim/"):
					pkg = p
					break frames
				}
			}
		}
		out[pkg] += float64(s.values[1]) / 1e9 // the cpu/nanoseconds value
	}
	return out, nil
}

// funcPackage returns the import path of a symbol name such as
// "g10sim/internal/flownet.(*Network).recompute".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// appendVarints decodes a repeated varint field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// walkProto calls fn for each field of a protobuf message: varint fields
// with their value, length-delimited fields with their bytes (non-nil).
func walkProto(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
