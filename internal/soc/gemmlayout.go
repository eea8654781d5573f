package soc

import (
	"fmt"

	"facil/internal/dram"
	"facil/internal/mapping"
)

// The paper estimates the side effect of running GEMM kernels directly on
// a PIM-optimized layout with GPGPU-Sim and ONNXim (Table III: at most a
// few percent). This file reproduces that estimate with the in-repo DRAM
// simulator: a GEMM's weight traffic is modeled as many concurrent
// streams — one per tile row the kernel walks — and the achieved DRAM
// bandwidth is compared between the conventional and the PIM-optimized
// mapping. Because each matrix row lives in its own bank under the PIM
// layout, per-stream locality degrades, but the kernel's abundant
// memory-level parallelism spreads streams across banks, leaving only a
// small residual slowdown — the paper's observation.

// LayoutSlowdownConfig controls the measurement.
type LayoutSlowdownConfig struct {
	// Streams is the number of concurrent row streams the kernel keeps
	// in flight (warps/DMA engines). Zero selects the placement's
	// natural tile height (RowsPerPass), modeling a well-tiled kernel
	// whose in-flight rows cover every processing unit exactly once —
	// the regime real GEMM kernels operate in and the reason the
	// paper's measured slowdowns stay within a few percent. The
	// ablations/gemm-streams study documents the sensitivity to this
	// choice.
	Streams int
	// SampleBytes bounds the simulated weight window. Defaults to 4 MiB.
	SampleBytes int64
}

func (c *LayoutSlowdownConfig) defaults() {
	if c.SampleBytes <= 0 {
		c.SampleBytes = 4 << 20
	}
}

// gemmWeightStream generates the burst stream of a tiled GEMM reading a
// weight matrix with `rows` rows of `rowBytes` each: `streams` concurrent
// row-walkers issuing round-robin. Requests are paced at the memory
// system's peak consumption rate (`channels` bursts per cycle), so a
// mapping that concentrates a tile's traffic on few channels exhibits the
// queueing it would cause in hardware instead of being reordered across
// the whole kernel. The stream is produced one burst per pull — it walks
// row groups of `streams` rows concurrently, column-major across the
// group (each "tick" advances every stream one burst) — so the window
// never materializes as a request slice.
func gemmWeightStream(m interface {
	Translate(uint64) (dram.Addr, int)
}, rows int, rowBytes int64, streams, channels int, limit int64, transfer int64) dram.RequestSource {
	if streams > rows {
		streams = rows
	}
	burstsPerRow := rowBytes / transfer
	group, s := 0, 0
	b := int64(0)
	var emitted int64
	return func(r *dram.Request) bool {
		for {
			if s == 0 {
				// Tick boundary: the size limit gates new ticks (and new
				// groups), never splits one — every stream in a started
				// tick advances.
				if b == 0 && (group*streams >= rows || emitted*transfer >= limit) {
					return false
				}
				if b >= burstsPerRow || emitted*transfer >= limit {
					group++
					b = 0
					continue
				}
			}
			row := group*streams + s
			if row >= rows {
				s = 0
				b++
				continue
			}
			pa := uint64(int64(row)*rowBytes + b*transfer)
			a, _ := m.Translate(pa)
			*r = dram.Request{
				Addr:    a,
				Arrival: emitted / int64(channels),
			}
			emitted++
			s++
			if s == streams {
				s = 0
				b++
			}
			return true
		}
	}
}

// gemmReplay keys one GEMM weight-stream replay in dram's process memo
// and yields the stream (source); the spec fixes the mapping table.
type gemmReplay struct {
	spec                  dram.Spec
	id                    mapping.MapID
	rows, streams         int
	rowBytes, sampleBytes int64
}

// newGemmReplay keys gemmWeightStream's walk of a rows x rowBytes matrix.
// The walk stops at the first tick past the sample window, so rows is
// clamped to the row groups it starts: shapes sharing a window share it.
func newGemmReplay(spec dram.Spec, tab *mapping.Table, id mapping.MapID, rows int, rowBytes int64, streams int, sampleBytes int64) gemmReplay {
	streams = min(streams, rows)
	transfer := int64(spec.Geometry.TransferBytes)
	if group := int64(streams) * (rowBytes / transfer * transfer); group > 0 {
		rows = int(min(int64(rows), (sampleBytes+group-1)/group*int64(streams)))
	}
	return gemmReplay{spec, tab.Resolve(id), rows, streams, rowBytes, sampleBytes}
}

func (k gemmReplay) source(tab *mapping.Table) dram.RequestSource {
	g := k.spec.Geometry
	return gemmWeightStream(tab.Lookup(k.id), k.rows, k.rowBytes, k.streams, g.Channels, k.sampleBytes, int64(g.TransferBytes))
}

// MeasureMemSlowdown returns the fractional slowdown of the GEMM's
// memory phase when the weight matrix uses the PIM mapping chosen by
// SelectMapping instead of the conventional mapping. The op's end-to-end
// slowdown is this times the op's MemoryBoundFraction. The replayed
// weight stream depends only on the weight shape (op.In, op.Out,
// op.DTypeBytes), never on op.L, so callers sweeping prefill lengths
// measure each shape once and scale it by each op's MemoryBoundFraction.
func MeasureMemSlowdown(p Platform, op Linear, cfg LayoutSlowdownConfig) (float64, error) {
	cfg.defaults()
	if err := op.Validate(); err != nil {
		return 0, err
	}
	mc := mapping.MemoryConfig{Geometry: p.Spec.Geometry, HugePageBytes: 2 << 20}
	chunk := mapping.AiMChunk(p.Spec.Geometry)
	tab, err := mapping.NewTable(mc, chunk)
	if err != nil {
		return 0, err
	}
	matrix := mapping.MatrixConfig{Rows: op.Out, Cols: op.In, DTypeBytes: op.DTypeBytes}
	sel, err := mapping.SelectMapping(matrix, mc, chunk)
	if err != nil {
		return 0, err
	}
	if cfg.Streams <= 0 {
		cfg.Streams = sel.RowsPerPass
	}
	run := func(id mapping.MapID) (float64, error) {
		key := newGemmReplay(p.Spec, tab, id, op.Out, int64(matrix.PaddedRowBytes()), cfg.Streams, cfg.SampleBytes)
		res, err := dram.MeasureStreamKeyed(key, p.Spec, key.source(tab), 0)
		if err != nil {
			return 0, err
		}
		if res.Bytes == 0 {
			return 0, fmt.Errorf("soc: empty GEMM stream")
		}
		return res.BandwidthGBs, nil
	}
	convBW, err := run(mapping.ConventionalMapID)
	if err != nil {
		return 0, err
	}
	pimBW, err := run(sel.ID)
	if err != nil {
		return 0, err
	}
	if pimBW <= 0 {
		return 0, fmt.Errorf("soc: PIM-layout stream produced zero bandwidth")
	}
	return max(convBW/pimBW-1, 0), nil
}
