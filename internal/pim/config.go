// Package pim models near-bank DRAM PIM devices (SK Hynix AiM-style, with
// the HBM-PIM chunk variant) executing GEMV in lock-step, all-bank mode on
// top of the cycle-level DRAM timing engine of internal/dram.
//
// The execution model follows the paper's description (Sec. II-B/II-C and
// VI-A): every bank has a processing unit; the 16 banks of a rank share a
// global input buffer the size of a DRAM row (2 KB); a single all-bank MAC
// command makes every bank read one burst of weights from its open row and
// multiply it against the matching slice of the global buffer. Input
// vectors are broadcast into the global buffers over the channel data bus;
// accumulated outputs are drained the same way; partial sums of
// column-partitioned rows are reduced by the SoC.
package pim

import (
	"fmt"

	"facil/internal/dram"
	"facil/internal/mapping"
)

// Config describes one PIM-enabled memory device.
type Config struct {
	// Chunk is the per-PU computation unit (AiM: 1 x one DRAM row).
	Chunk mapping.ChunkConfig
	// MACIntervalCycles is the minimum spacing of all-bank MAC commands
	// on one rank, in burst cycles. It sets the internal compute
	// bandwidth: one MAC moves banksPerRank x transferBytes of weights
	// into the PUs. The default of 6 calibrates the aggregate internal
	// bandwidth to the multiple of external bandwidth implied by the
	// paper's Fig. 3 (PIM ~3.3x over an ideal bandwidth-bound NPU
	// end-to-end).
	MACIntervalCycles int
}

// DefaultAiM returns the paper's evaluation configuration for a geometry:
// AiM-style PIM where 16 banks of each rank share a row-sized buffer.
func DefaultAiM(g dram.Geometry) Config {
	return Config{
		Chunk:             mapping.AiMChunk(g),
		MACIntervalCycles: 6,
	}
}

// DefaultHBMPIM returns an HBM-PIM-style configuration.
func DefaultHBMPIM(g dram.Geometry) Config {
	return Config{
		Chunk:             mapping.HBMPIMChunk(g),
		MACIntervalCycles: 6,
	}
}

// Validate checks the configuration against a geometry.
func (c Config) Validate(g dram.Geometry) error {
	if err := c.Chunk.Validate(g); err != nil {
		return err
	}
	if c.MACIntervalCycles < 1 {
		return fmt.Errorf("pim: MACIntervalCycles %d must be >= 1", c.MACIntervalCycles)
	}
	return nil
}

// InternalBandwidthGBs returns the peak internal (in-device) weight
// bandwidth of the whole memory system: every bank streams one burst per
// MAC interval.
func (c Config) InternalBandwidthGBs(spec dram.Spec) float64 {
	g := spec.Geometry
	bytesPerInterval := float64(g.TotalBanks() * g.TransferBytes)
	intervalSec := float64(c.MACIntervalCycles) * spec.Timing.CycleNS * 1e-9
	return bytesPerInterval / intervalSec / 1e9
}
