package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuByPackage reads a gzipped pprof CPU profile, as runtime/pprof
// writes it, and returns the self CPU seconds of each package: every
// sample is charged to the innermost function of its leaf location,
// inlined frames included. Packages under acme/internal/ are keyed by
// their last element ("tensor"), everything else by its import path.
func cpuByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     [][2][]int64
		locFunc     = map[int64]int64{} // location id → innermost function id
		funcName    = map[int64]int64{} // function id → name string index
		strs        []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			var vt [2]int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2:
			var s [2][]int64 // location ids, values
			err := pbFields(b, func(f int, v uint64, pb []byte) error {
				if f == 1 || f == 2 {
					s[f-1] = appendVarints(s[f-1], v, pb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn int64
			first := true
			err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = int64(v)
				case 4:
					if first {
						first = false
						return pbFields(lb, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = int64(v)
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = int64(v)
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
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
	cpu := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu nanoseconds sample type")
	}
	out := make(map[string]float64)
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) <= cpu {
			continue
		}
		name := str(funcName[locFunc[s[0][0]]])
		out[packageOf(name)] += float64(s[1][cpu]) / 1e9
	}
	return out, nil
}

// packageOf extracts the package of a symbol name such as
// "acme/internal/nn.(*Linear).Forward" (→ "nn") or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	return strings.TrimPrefix(pkg, "acme/internal/")
}

// pbFields walks the top-level fields of one protobuf message, calling
// fn with the field number and either the varint value or the
// length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
	}
	return nil
}

// appendVarints appends one repeated-integer field occurrence: a single
// varint, or a packed run of them.
func appendVarints(dst []int64, v uint64, packed []byte) []int64 {
	if packed == nil {
		return append(dst, int64(v))
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, int64(x))
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
