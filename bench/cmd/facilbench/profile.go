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

// layerOf bills each facil/internal package to the layer whose
// cpu_share it counts toward. TestLayerMapCoversInternal keeps it in
// step with the packages on disk.
var layerOf = map[string]string{
	"addr": "dram", "dram": "dram", "mapping": "dram", "mc": "dram", "trace": "dram",
	"core": "engine", "energy": "engine", "engine": "engine", "pim": "engine", "sched": "engine",
	"soc": "soc", "llm": "llm", "relayout": "relayout", "vm": "vm",
	"fault": "serve", "serve": "serve", "workload": "serve",
	"cluster": "cluster", "tune": "tune", "stats": "stats",
	"parallel": "parallel", "daemon": "daemon",
	"exp": "exp", "run": "exp", "obs": "exp",
}

// attribute bills one sampled stack, leaf frame first, to a layer. The
// innermost facil frame decides, so standard-library helpers (sorting,
// JSON, maps) count against the facil code that called them: a
// facil/internal frame bills its package's layer, a frame of facilbench
// itself (package main) bills "bench". A stack with no facil frame — the
// garbage collector, the scheduler, net/http plumbing — bills "runtime".
func attribute(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "facil/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			if l, ok := layerOf[rest]; ok {
				return l
			}
			return "runtime"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// cpuShares decodes a gzipped pprof CPU profile and returns every
// layer's share of the sampled CPU time, in percent.
func cpuShares(profile []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	var total float64
	byLayer := map[string]float64{}
	for _, s := range stacks {
		byLayer[attribute(s.frames)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for l, v := range byLayer {
		shares[l] = 100 * v / total
	}
	return shares, nil
}

// stack is one profile sample: its function names leaf first, and its
// CPU time.
type stack struct {
	frames []string
	value  float64
}

// decodeProfile reads the profile.proto fields a CPU profile's
// attribution needs: samples (location ids and values), locations
// (function ids, inlined callees first), functions (name indices) and
// the string table. The last sample value is the CPU time.
func decodeProfile(profile []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids
		names   = map[uint64]uint64{}   // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = append(s.locs, varints(v, b)...)
				case 2:
					s.values = append(s.values, varints(v, b)...)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			names[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("pprof: sample without values")
		}
		st := stack{value: float64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := names[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		buf = buf[n:]
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(buf); n <= 0 {
				return errors.New("pprof: bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(buf) < w {
				return errors.New("pprof: truncated fixed field")
			}
			buf = buf[w:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("pprof: truncated field")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values: packed (b holds the
// varints) or one unpacked value v.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
