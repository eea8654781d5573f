package pim

import (
	"facil/internal/dram"
	"facil/internal/mapping"
	"facil/internal/parallel"
)

// GEMVResult reports one simulated GEMV execution.
type GEMVResult struct {
	// Cycles is the per-channel completion cycle (channels run the same
	// lock-step schedule, so one channel's timeline is the system's).
	Cycles int64
	// Seconds is Cycles in wall-clock time.
	Seconds float64
	// MACs is the number of all-bank MAC commands issued per rank.
	MACs int64
	// Activations is the number of all-bank row activations per rank.
	Activations int64
	// InputBursts / OutputBursts is the data-bus traffic per channel.
	InputBursts  int64
	OutputBursts int64
	// PartialSums reports the column-partition factor; values > 1 mean
	// the SoC must reduce that many partial outputs per element.
	PartialSums int
	// EffectiveInternalGBs is weight bytes / Seconds for the whole
	// system.
	EffectiveInternalGBs float64
}

// Device simulates GEMV offload onto a PIM-enabled memory system. GEMV
// timings are cached per matrix shape: the schedule depends only on the
// placement, not on values.
//
// A Device is safe for concurrent use: the configuration is immutable
// after NewDevice and the shape cache is internally synchronized with
// in-flight deduplication, so concurrent misses on the same shape
// simulate the schedule exactly once and share the result.
type Device struct {
	spec dram.Spec
	cfg  Config
	mem  mapping.MemoryConfig

	cach parallel.Flight[mapping.MatrixConfig, GEMVResult]
}

// NewDevice validates the configuration and builds a device.
func NewDevice(spec dram.Spec, cfg Config) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(spec.Geometry); err != nil {
		return nil, err
	}
	return &Device{
		spec: spec,
		cfg:  cfg,
		mem:  mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20},
	}, nil
}

// GEMV simulates y = W·x for a weight matrix placed by FACIL's mapping
// selector. The schedule per channel:
//
//	for each 2 KB input segment:
//	    broadcast the segment into each rank's global buffer (data bus)
//	    for each DRAM row (pass) using that segment:
//	        all-bank ACT on each rank
//	        one all-bank MAC per burst of the row, ranks interleaved
//	        all-bank PRE on each rank
//	drain accumulated outputs over the data bus
//
// Channels execute identical lock-step schedules, so a single channel is
// simulated and its completion time is the device's.
func (d *Device) GEMV(matrix mapping.MatrixConfig) (GEMVResult, error) {
	return d.cach.Do(matrix, func() (GEMVResult, error) {
		return d.GEMVUncached(matrix)
	})
}

// GEMVUncached is GEMV without the shape cache, for callers whose
// shapes are unbounded (the engine's KV cache past its latency tables).
func (d *Device) GEMVUncached(matrix mapping.MatrixConfig) (GEMVResult, error) {
	return d.schedule(dram.NewChannel(&d.spec), matrix)
}

// schedule runs matrix's GEMV schedule on ch: per input segment, one
// global-buffer broadcast per rank, then that segment's passes as one
// dram.Channel.AllBankPasses call, then the output drain.
func (d *Device) schedule(ch *dram.Channel, matrix mapping.MatrixConfig) (GEMVResult, error) {
	sel, err := mapping.SelectMapping(matrix, d.mem, d.cfg.Chunk)
	if err != nil {
		return GEMVResult{}, err
	}
	g := d.spec.Geometry
	res := GEMVResult{PartialSums: sel.PartitionsPerRow}

	rowBytes := int64(matrix.PaddedRowBytes())
	totalBytes := int64(matrix.Rows) * rowBytes
	// Weight bytes per bank, rounded up to whole DRAM rows.
	perBank := (totalBytes + int64(g.TotalBanks()) - 1) / int64(g.TotalBanks())
	dramRowsPerBank := int((perBank + int64(g.RowBytes) - 1) / int64(g.RowBytes))
	if dramRowsPerBank == 0 {
		dramRowsPerBank = 1
	}
	// Input segments: the vector is consumed in global-buffer-sized
	// slices. A partitioned matrix splits the vector across PU groups,
	// but every segment still reaches every rank's buffer over the bus.
	inBytes := int64(matrix.Cols) * int64(matrix.DTypeBytes)
	segments := int((inBytes + int64(g.RowBytes) - 1) / int64(g.RowBytes))
	if segments == 0 {
		segments = 1
	}
	// Passes per segment: DRAM rows per bank are spread evenly over the
	// segments they consume.
	passesPerSeg := (dramRowsPerBank + segments - 1) / segments

	// A segment fills each rank's global input buffer, which holds one
	// DRAM row (the paper's assumption), so it is one row of bursts.
	burstsPerRow := g.ColumnsPerRow()

	ranks := g.RanksPerChannel
	row := 0
	passesLeft := dramRowsPerBank
	for seg := 0; seg < segments && passesLeft > 0; seg++ {
		for rk := 0; rk < ranks; rk++ {
			if _, err := ch.WriteGlobalBuffer(rk, burstsPerRow); err != nil {
				return GEMVResult{}, err
			}
			res.InputBursts += int64(burstsPerRow)
		}
		passes := min(passesPerSeg, passesLeft)
		if err := ch.AllBankPasses(row%g.Rows, passes, burstsPerRow, d.cfg.MACIntervalCycles); err != nil {
			return GEMVResult{}, err
		}
		res.Activations += int64(passes)
		res.MACs += int64(passes) * int64(burstsPerRow)
		row += passes
		passesLeft -= passes
	}
	// Output drain: Rows x PartitionsPerRow partial elements system-
	// wide, spread across channels.
	outElems := int64(matrix.Rows) * int64(sel.PartitionsPerRow)
	outBytes := outElems * int64(matrix.DTypeBytes)
	outBurstsPerChannel := int((outBytes/int64(g.Channels) + int64(g.TransferBytes) - 1) / int64(g.TransferBytes))
	perRank := (outBurstsPerChannel + ranks - 1) / ranks
	for rk := 0; rk < ranks; rk++ {
		if _, err := ch.ReadMACResults(rk, perRank); err != nil {
			return GEMVResult{}, err
		}
		res.OutputBursts += int64(perRank)
	}

	res.Cycles = ch.Now()
	res.Seconds = d.spec.Timing.Seconds(res.Cycles)
	if res.Seconds > 0 {
		res.EffectiveInternalGBs = float64(totalBytes) / res.Seconds / 1e9
	}
	return res, nil
}
