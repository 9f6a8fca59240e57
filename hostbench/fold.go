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

// hostModules are the simulator modules a CPU profile is folded into, in
// report order. "tracing" and "metrics" are the traced run's own
// instruments; "other" collects any remaining repro/internal module; a
// sample with no repo frame at all is billed to "runtime".
var hostModules = []string{
	"ext3", "nfs", "sunrpc", "xdr", "iscsi", "scsi", "simnet", "netqueue",
	"tcpsim", "simdisk", "blockdev", "sim", "testbed", "vfs", "workload",
	"runtime", "tracing", "metrics", "other",
}

const repoPrefix = "repro/internal/"

// hostShares folds a CPU profile, as runtime/pprof writes it (gzipped
// profile.proto), into each module's share of sampled CPU time. Each
// sample is billed to the innermost repro/internal/<module> frame on its
// stack, inlined frames included, so time in memmove or map iteration
// lands on the simulator code that called it.
func hostShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(hostModules))
	for _, m := range hostModules {
		known[m] = true
	}
	// module of each location: its innermost repo frame, or "".
	locModule := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fn := range fns {
			if m := moduleOf(p.funcName(fn)); m != "" {
				if !known[m] {
					m = "other"
				}
				locModule[id] = m
				break
			}
		}
	}
	billed := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		m := "runtime"
		for _, loc := range s.locs {
			if lm := locModule[loc]; lm != "" {
				m = lm
				break
			}
		}
		billed[m] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples")
	}
	out := make(map[string]float64, len(hostModules))
	for _, m := range hostModules {
		out[m] = float64(billed[m]) / float64(total)
	}
	return out, nil
}

// moduleOf returns <module> for a function in repro/internal/<module>.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profile is the part of profile.proto the fold reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name index in strs
	strs      []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

func (p *profile) funcName(id uint64) string {
	i := p.functions[id]
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

// Field numbers from profile.proto
// (github.com/google/pprof/proto/profile.proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			var vals []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					return packed(&s.locs, v, b)
				case fSampleValue:
					return packed(&vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed appends a repeated integer field, which the encoder may write
// either packed (one length-delimited run of varints) or one per field.
func packed(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
