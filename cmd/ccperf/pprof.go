package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes just enough of the pprof profile format (a gzipped
// profile.proto message) to attribute CPU samples to layers, so the
// benchmark needs nothing beyond the standard library.

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// profSample is one distinct call stack of a CPU profile and how many
// samples landed on it.
type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	n     int64
}

// cpuSamples decodes a CPU profile into its sample stacks.
func cpuSamples(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  []struct {
			locs []uint64
			n    int64
		}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileStringTable:
			strs = append(strs, string(b))
		case fProfileFunction:
			var id, name uint64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunctionID {
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
		case fProfileSample:
			var locs, vals []uint64
			if err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case fSampleLocationID:
					locs = appendPacked(locs, w, v, pb)
				case fSampleValue:
					vals = appendPacked(vals, w, v, pb)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 && vals[0] > 0 {
				samples = append(samples, struct {
					locs []uint64
					n    int64
				}{locs, int64(vals[0])})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, smp := range samples {
		var stack []string
		for _, loc := range smp.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if si, ok := funcName[fn]; ok && si < uint64(len(strs)) {
					name = strs[si]
				}
				stack = append(stack, name)
			}
		}
		out = append(out, profSample{stack: stack, n: smp.n})
	}
	return out, nil
}

// appendPacked appends a repeated varint field's values, whether encoded
// packed (wire type 2) or one per field (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
