// Package profparse is a minimal reader for pprof's profile.proto —
// just enough protobuf to turn the CPU/heap profiles inside a capscope
// incident bundle into "top functions" without importing a protobuf
// stack (the repo's no-new-dependencies rule). It hand-walks the wire
// format: a profile is samples (location-id stacks + values), a
// location table mapping ids to lines, a function table mapping ids to
// string-table names. Everything else (mappings, labels, comments) is
// skipped field-by-field, which is exactly what the wire format is
// designed to allow.
package profparse

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// Profile is the decoded subset: sample types, raw samples, and the
// location→function name resolution tables.
type Profile struct {
	// SampleTypes are "type/unit" strings, one per value column
	// (e.g. "samples/count", "cpu/nanoseconds").
	SampleTypes []string

	// DurationNanos is the profile's wall-clock span (0 if unset).
	DurationNanos int64

	Samples []Sample

	locFuncs map[uint64][]uint64 // location id → function ids, leaf line first
	funcName map[uint64]string   // function id → name
}

// Sample is one stack with its value columns. LocationIDs run leaf
// first, per the pprof convention.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Entry is one function's aggregated weight.
type Entry struct {
	Name string
	Flat int64 // attributed to samples whose leaf is this function
	Cum  int64 // attributed to samples with this function anywhere on-stack
}

// Parse decodes a pprof profile, gzipped (the runtime/pprof default)
// or raw.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profparse: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profparse: gunzip: %w", err)
		}
		data = raw
	}
	p := &Profile{
		locFuncs: make(map[uint64][]uint64),
		funcName: make(map[uint64]string),
	}
	var strtab []string
	var sampleTypeRefs [][2]uint64         // (type, unit) string indices
	funcNameIdx := make(map[uint64]uint64) // function id → string index
	err := walkFields(data, func(field uint64, wire int, v uint64, chunk []byte) error {
		switch field {
		case 1: // sample_type: ValueType
			var typ, unit uint64
			if err := walkFields(chunk, func(f uint64, w int, vv uint64, _ []byte) error {
				switch f {
				case 1:
					typ = vv
				case 2:
					unit = vv
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypeRefs = append(sampleTypeRefs, [2]uint64{typ, unit})
		case 2: // sample
			var s Sample
			if err := walkFields(chunk, func(f uint64, w int, vv uint64, cc []byte) error {
				switch f {
				case 1: // location_id, packed or not
					if w == 2 {
						return walkVarints(cc, func(u uint64) {
							s.LocationIDs = append(s.LocationIDs, u)
						})
					}
					s.LocationIDs = append(s.LocationIDs, vv)
				case 2: // value, packed or not
					if w == 2 {
						return walkVarints(cc, func(u uint64) {
							s.Values = append(s.Values, int64(u))
						})
					}
					s.Values = append(s.Values, int64(vv))
				}
				return nil
			}); err != nil {
				return err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			if err := walkFields(chunk, func(f uint64, w int, vv uint64, cc []byte) error {
				switch f {
				case 1:
					id = vv
				case 4: // line
					return walkFields(cc, func(lf uint64, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			if err := walkFields(chunk, func(f uint64, _ int, vv uint64, _ []byte) error {
				switch f {
				case 1:
					id = vv
				case 2:
					name = vv
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strtab = append(strtab, string(chunk))
		case 10: // duration_nanos
			p.DurationNanos = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profparse: %w", err)
	}
	// Second pass: resolve string-table references now the table is
	// complete (function entries may precede it on the wire).
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strtab)) {
			p.funcName[id] = strtab[idx]
		} else {
			p.funcName[id] = "?"
		}
	}
	for _, r := range sampleTypeRefs {
		typ, unit := "?", "?"
		if int(r[0]) < len(strtab) {
			typ = strtab[r[0]]
		}
		if int(r[1]) < len(strtab) {
			unit = strtab[r[1]]
		}
		p.SampleTypes = append(p.SampleTypes, typ+"/"+unit)
	}
	if len(p.Samples) > 0 && len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("profparse: no sample types")
	}
	return p, nil
}

// FuncName resolves a location id to its leaf function name.
func (p *Profile) FuncName(loc uint64) string {
	funcs := p.locFuncs[loc]
	if len(funcs) == 0 {
		return "?"
	}
	if name, ok := p.funcName[funcs[0]]; ok {
		return name
	}
	return "?"
}

// TotalValue sums one value column over all samples (-1: the last
// column, matching Top).
func (p *Profile) TotalValue(valueIndex int) int64 {
	if valueIndex < 0 {
		valueIndex = len(p.SampleTypes) - 1
	}
	var total int64
	for _, s := range p.Samples {
		if valueIndex >= 0 && valueIndex < len(s.Values) {
			total += s.Values[valueIndex]
		}
	}
	return total
}

// Top aggregates the profile into the n heaviest functions by flat
// weight of the given value column (-1: the last column, which is CPU
// nanoseconds for CPU profiles and inuse_space for heap profiles).
func (p *Profile) Top(n, valueIndex int) []Entry {
	if valueIndex < 0 {
		valueIndex = len(p.SampleTypes) - 1
	}
	flat := make(map[string]int64)
	cum := make(map[string]int64)
	seen := make(map[string]bool)
	for _, s := range p.Samples {
		if valueIndex < 0 || valueIndex >= len(s.Values) {
			continue
		}
		v := s.Values[valueIndex]
		if len(s.LocationIDs) == 0 {
			continue
		}
		flat[p.FuncName(s.LocationIDs[0])] += v
		clear(seen)
		for _, loc := range s.LocationIDs {
			for _, fid := range p.locFuncs[loc] {
				name := p.funcName[fid]
				if name == "" {
					name = "?"
				}
				if !seen[name] {
					seen[name] = true
					cum[name] += v
				}
			}
		}
	}
	out := make([]Entry, 0, len(cum))
	for name, c := range cum {
		out = append(out, Entry{Name: name, Flat: flat[name], Cum: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flat != out[j].Flat {
			return out[i].Flat > out[j].Flat
		}
		if out[i].Cum != out[j].Cum {
			return out[i].Cum > out[j].Cum
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// walkFields iterates a protobuf message's fields. For wire type 2 the
// callback gets the chunk; for varint fields it gets the value. Fixed
// 64/32-bit fields are delivered as values too (pprof uses none, but
// skipping them correctly keeps the walk aligned).
func walkFields(data []byte, fn func(field uint64, wire int, v uint64, chunk []byte) error) error {
	for len(data) > 0 {
		tag, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field tag")
		}
		data = data[n:]
		field, wire := tag>>3, int(tag&7)
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			var v uint64
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("truncated chunk in field %d", field)
			}
			chunk := data[n : uint64(n)+l]
			data = data[uint64(n)+l:]
			if err := fn(field, wire, 0, chunk); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			var v uint64
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[4:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// walkVarints iterates a packed varint chunk.
func walkVarints(data []byte, fn func(uint64)) error {
	for len(data) > 0 {
		v, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		fn(v)
		data = data[n:]
	}
	return nil
}

// uvarint decodes one base-128 varint; n <= 0 on malformed input.
func uvarint(data []byte) (v uint64, n int) {
	var shift uint
	for i, b := range data {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}
