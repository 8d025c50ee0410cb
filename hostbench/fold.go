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

// The fold attributes profile samples to the repo's layers. Each sample
// goes to its innermost frame in a layer package, so runtime and sync
// frames count toward the layer that called them. encoding/gob frames met
// before any layer frame form their own bucket; samples with no layer
// frame at all (GC workers, the scheduler, the benchmark itself) count as
// runtime. The blast kernel is split by symbol into query indexing, the
// subject scan, extension and report rendering.

// Fold buckets, in print order.
var foldBuckets = []string{
	"blast.index", "blast.scan", "blast.extend", "blast.render",
	"mpi", "mpiio", "vfs", "formatdb", "engine", "core", "mpiblast",
	"experiments", "observability", "gob", "runtime",
}

// layerOf maps an internal package to its layer. Helper packages (seq,
// matrix, stats, simtime, fasta) are not layers: a frame in one is skipped
// and the sample goes to the layer that called it. workload is missing
// too: it runs only in set-up, outside every profiled call.
var layerOf = map[string]string{
	"blast": "blast", "mpi": "mpi", "mpiio": "mpiio", "vfs": "vfs",
	"formatdb": "formatdb", "engine": "engine", "core": "core",
	"mpiblast": "mpiblast", "experiments": "experiments",
	"report": "observability", "trace": "observability", "metrics": "observability",
}

const internalPrefix = "parblast/internal/"

// blastBucket splits the kernel by symbol.
func blastBucket(fn string) string {
	switch {
	case strings.Contains(fn, "buildIndex"), strings.Contains(fn, "buildProtein"),
		strings.Contains(fn, "buildDNA"), strings.Contains(fn, "SetQuery"),
		strings.Contains(fn, "MaskForSeeding"), strings.Contains(fn, "LowComplexity"):
		return "blast.index"
	case strings.Contains(fn, "extend"), strings.Contains(fn, "gappedFromSeed"),
		strings.Contains(fn, "dpScratch"), strings.Contains(fn, "walkTraceback"),
		strings.Contains(fn, "reverse"), strings.Contains(fn, "cullContained"):
		return "blast.extend"
	case strings.Contains(fn, "Render"), strings.Contains(fn, "Format"):
		return "blast.render"
	}
	return "blast.scan"
}

// bucketOf folds one stack, innermost frame first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "encoding/gob.") {
			return "gob"
		}
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		layer, ok := layerOf[pkg]
		if !ok {
			continue
		}
		if layer == "blast" {
			return blastBucket(rest)
		}
		return layer
	}
	return "runtime"
}

// fold sums a profile's values of the named sample type by bucket.
func fold(p *profile, sampleType string) (map[string]float64, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", sampleType, p.sampleTypes)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if col < len(s.values) {
			out[bucketOf(s.stack)] += float64(s.values[col])
		}
	}
	return out, nil
}

// profile is the part of a pprof profile the fold needs: sample types and
// samples with symbolized stacks, innermost frame first.
type profile struct {
	sampleTypes []string
	samples     []sample
}

type sample struct {
	stack  []string
	values []int64
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto), as
// runtime/pprof writes it, with a minimal wire-format reader.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		strs     []string
		typeIdx  []uint64
		raws     []rawSample
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := walkFields(data, func(field int, _ int, _ uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type=1}
			var t uint64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					t = v
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					return appendVarints(&s.values, w, v, b)
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location: Location{id=1, line=4 Line{function_id=1}}
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, r := range raws {
		s := sample{values: make([]int64, len(r.values))}
		for i, v := range r.values {
			s.values[i] = int64(v)
		}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of a protobuf message: varints pass
// their value, length-delimited fields their bytes; fixed-width fields
// are skipped.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
