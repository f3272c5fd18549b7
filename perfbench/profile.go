package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// profile is the part of a runtime/pprof profile the layer split needs:
// every sample's call stack as function names (leaf first, inlined frames
// expanded) and its values, plus the sample type names.
//
// The pprof format is a gzipped protocol buffer (github.com/google/pprof
// proto/profile.proto). Only the standard library is available here, so the
// wire format is decoded by hand; fields this file does not need are
// skipped.
type profile struct {
	types   []string // sample value type names, e.g. "cpu", "alloc_space"
	samples []sample
}

type sample struct {
	stack  []string // function names, leaf first
	values []int64
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.types {
		if t == name {
			return i
		}
	}
	return -1
}

// add appends q's samples to p. Both come from the same kind of profile,
// so they share sample types.
func (p *profile) add(q *profile) {
	if p.types == nil {
		p.types = q.types
	}
	p.samples = append(p.samples, q.samples...)
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// parseProfile decodes a gzipped (or raw) pprof protocol buffer.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		rawSamps  []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err := eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample: {location_id=1, value=2}
			var s rawSample
			if err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wt, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamps = append(rawSamps, s)
		case 4: // location: {id=1, line=4 {function_id=1}}
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function: {id=1, name=2}
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, rs := range rawSamps {
		s := sample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
// Fixed-width fields are skipped (pprof uses none that matter here).
func eachField(buf []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		buf = buf[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("pprof: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("pprof: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
