package tune

import (
	"fmt"

	"facil/internal/dram"
	"facil/internal/mapping"
)

// Trace is a canonical burst-address trace of one workload's weight
// traffic: burst indices (physical address >> OffsetBits) in issue
// order, split into weighted segments. The trace is mapping-independent
// — candidates are scored by translating the same physical stream — and
// is captured once per platform/workload cell, then shared read-only by
// every estimator and full-sim replay.
type Trace struct {
	// Codes holds burst indices (PA divided by the transfer size).
	Codes []uint32
	// Segments partitions Codes into weighted phases.
	Segments []TraceSegment
	// Geometry records the geometry the codes were generated against.
	Geometry dram.Geometry
}

// TraceSegment is one weighted phase of a trace: Codes[Start:End].
type TraceSegment struct {
	// Label names the phase ("gemv", "gemm").
	Label string
	// Start and End bound the segment's code range.
	Start, End int
	// Weight scales the segment's cycle contribution in the combined
	// score (e.g. the workload's median decode length for the GEMV
	// phase vs. one prefill pass for the GEMM phase).
	Weight float64
}

// Bursts returns the total number of bursts in the trace.
func (t *Trace) Bursts() int { return len(t.Codes) }

// TraceConfig controls trace capture for one platform/workload cell.
type TraceConfig struct {
	// Matrix is the representative weight matrix the phases walk.
	Matrix mapping.MatrixConfig
	// Streams is the number of concurrent row streams the GEMM tile
	// walk keeps in flight (a well-tiled kernel's natural value is the
	// placement's RowsPerPass). Must be positive.
	Streams int
	// SampleBytes bounds each phase's simulated weight window
	// (default 2 MiB — one huge page).
	SampleBytes int64
	// DecodeWeight scales the GEMV segment (default 1) against the GEMM
	// segment's fixed weight of 1; callers pass the workload's median
	// decode length so the combined score reflects decode-dominance.
	DecodeWeight float64
}

// CaptureTrace generates the two-phase canonical trace for a workload:
//
//   - gemv: the PIM decode access shape — a sequential row-major scan of
//     the weight matrix (each all-bank pass streams every row once).
//   - gemm: the SoC prefill access shape — Streams concurrent row
//     walkers advancing one burst per tick, mirroring the tiled-kernel
//     model of soc.MeasureMemSlowdown.
//
// Both phases are emitted as physical burst indices so one captured
// trace scores every candidate mapping.
func CaptureTrace(g dram.Geometry, cfg TraceConfig) (*Trace, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Matrix.Validate(); err != nil {
		return nil, err
	}
	if cfg.Streams <= 0 {
		return nil, fmt.Errorf("tune: trace needs a positive GEMM stream count, got %d", cfg.Streams)
	}
	if cfg.SampleBytes <= 0 {
		cfg.SampleBytes = 2 << 20
	}
	if cfg.DecodeWeight <= 0 {
		cfg.DecodeWeight = 1
	}
	transfer := int64(g.TransferBytes)
	offBits := uint(g.OffsetBits())
	rowBytes := int64(cfg.Matrix.PaddedRowBytes())
	rows := cfg.Matrix.Rows

	tr := &Trace{Geometry: g}

	// gemv: sequential scan of the padded matrix, capped by SampleBytes.
	scan := cfg.Matrix.PaddedBytes()
	if scan > cfg.SampleBytes {
		scan = cfg.SampleBytes
	}
	for pa := int64(0); pa < scan; pa += transfer {
		tr.Codes = append(tr.Codes, uint32(uint64(pa)>>offBits))
	}
	tr.Segments = append(tr.Segments, TraceSegment{
		Label: "gemv", Start: 0, End: len(tr.Codes), Weight: cfg.DecodeWeight,
	})

	// gemm: Streams concurrent row walkers, column-major across each row
	// group — one tick advances every stream one burst. The size cap
	// gates new ticks, never splits one.
	start := len(tr.Codes)
	streams := cfg.Streams
	if streams > rows {
		streams = rows
	}
	burstsPerRow := rowBytes / transfer
	var emitted int64
walk:
	for group := 0; group*streams < rows; group++ {
		for b := int64(0); b < burstsPerRow; b++ {
			if emitted*transfer >= cfg.SampleBytes {
				break walk
			}
			for si := 0; si < streams; si++ {
				row := group*streams + si
				if row >= rows {
					break
				}
				pa := int64(row)*rowBytes + b*transfer
				tr.Codes = append(tr.Codes, uint32(uint64(pa)>>offBits))
				emitted++
			}
		}
	}
	tr.Segments = append(tr.Segments, TraceSegment{
		Label: "gemm", Start: start, End: len(tr.Codes), Weight: 1,
	})

	if len(tr.Codes) == 0 {
		return nil, fmt.Errorf("tune: captured an empty trace")
	}
	return tr, nil
}
