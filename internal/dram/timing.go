package dram

import "fmt"

// Timing holds DRAM timing constraints expressed in burst cycles (one cycle
// = time for one TransferBytes burst on the channel data bus).
//
// The values are derived from JEDEC LPDDR5/5X (JESD209-5)
// datasheet-class numbers, quantized to the burst clock. They intentionally
// model the constraints that dominate achieved bandwidth and row-locality
// effects; exotic constraints (per-bank-group tCCD_S/L distinction,
// tPPD, DQS training, ...) are folded into the ones below.
type Timing struct {
	// TRCD: ACT to first RD/WR to the same bank.
	TRCD int
	// TRP: PRE to next ACT to the same bank.
	TRP int
	// TRAS: ACT to PRE to the same bank.
	TRAS int
	// TRC: ACT to ACT to the same bank (>= TRAS+TRP).
	TRC int
	// TCCD: RD-to-RD / WR-to-WR command spacing on one rank.
	// 1 means seamless bursts.
	TCCD int
	// TRRD: ACT to ACT to different banks of the same rank.
	TRRD int
	// TFAW: window in which at most four ACTs may be issued per rank.
	TFAW int
	// TWR: write recovery, end of write burst to PRE.
	TWR int
	// TWTR: end of write burst to next read command (same rank).
	TWTR int
	// TRTP: read command to PRE.
	TRTP int
	// TRTW: read command to write command turnaround (same channel).
	TRTW int
	// CL: read command to first data beat (latency, informational for
	// completion times; does not gate throughput).
	CL int
	// CWL: write command to first data beat.
	CWL int
	// TRFCab: all-bank refresh duration.
	TRFCab int
	// TREFI: average interval between refresh commands.
	TREFI int
	// CycleNS is the wall-clock duration of one burst cycle in
	// nanoseconds (e.g. 2.5 at LPDDR5-6400 x16).
	CycleNS float64
}

// Validate reports an error for non-physical parameter combinations.
// Errors wrap ErrConfig.
func (t Timing) Validate() error {
	if t.CycleNS <= 0 {
		return fmt.Errorf("%w: CycleNS must be positive, got %g", ErrConfig, t.CycleNS)
	}
	nonNeg := map[string]int{
		"TRCD": t.TRCD, "TRP": t.TRP, "TRAS": t.TRAS, "TRC": t.TRC,
		"TCCD": t.TCCD, "TRRD": t.TRRD, "TFAW": t.TFAW, "TWR": t.TWR,
		"TWTR": t.TWTR, "TRTP": t.TRTP, "TRTW": t.TRTW, "CL": t.CL,
		"CWL": t.CWL, "TRFCab": t.TRFCab, "TREFI": t.TREFI,
	}
	for name, v := range nonNeg {
		if v < 0 {
			return fmt.Errorf("%w: timing %s must be non-negative, got %d", ErrConfig, name, v)
		}
	}
	if t.TCCD < 1 {
		return fmt.Errorf("%w: TCCD must be >= 1 burst cycle, got %d", ErrConfig, t.TCCD)
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("%w: TRC (%d) < TRAS+TRP (%d)", ErrConfig, t.TRC, t.TRAS+t.TRP)
	}
	return nil
}

// Seconds converts a cycle count to seconds.
func (t Timing) Seconds(cycles int64) float64 {
	return float64(cycles) * t.CycleNS * 1e-9
}

// Cycles converts a duration in nanoseconds to (rounded-up) burst cycles.
func (t Timing) Cycles(ns float64) int {
	if ns <= 0 {
		return 0
	}
	c := int(ns / t.CycleNS)
	if float64(c)*t.CycleNS < ns {
		c++
	}
	return c
}

// timingFromNS builds a Timing from nanosecond-valued constraints, rounding
// each up to whole burst cycles.
func timingFromNS(cycleNS float64, p nsParams) Timing {
	t := Timing{CycleNS: cycleNS}
	t.TRCD = t.Cycles(p.tRCD)
	t.TRP = t.Cycles(p.tRP)
	t.TRAS = t.Cycles(p.tRAS)
	t.TRC = t.Cycles(p.tRC)
	if t.TRC < t.TRAS+t.TRP {
		t.TRC = t.TRAS + t.TRP
	}
	t.TCCD = t.Cycles(p.tCCD)
	if t.TCCD < 1 {
		t.TCCD = 1
	}
	t.TRRD = t.Cycles(p.tRRD)
	t.TFAW = t.Cycles(p.tFAW)
	t.TWR = t.Cycles(p.tWR)
	t.TWTR = t.Cycles(p.tWTR)
	t.TRTP = t.Cycles(p.tRTP)
	t.TRTW = t.Cycles(p.tRTW)
	t.CL = t.Cycles(p.cl)
	t.CWL = t.Cycles(p.cwl)
	t.TRFCab = t.Cycles(p.tRFCab)
	t.TREFI = t.Cycles(p.tREFI)
	return t
}

// nsParams carries nanosecond-valued timing constraints used to build
// Timing presets.
type nsParams struct {
	tRCD, tRP, tRAS, tRC   float64
	tCCD, tRRD, tFAW       float64
	tWR, tWTR, tRTP, tRTW  float64
	cl, cwl, tRFCab, tREFI float64
}

// lpddr5NS holds LPDDR5-class core timing in nanoseconds (JESD209-5,
// typical speed-bin values).
var lpddr5NS = nsParams{
	tRCD: 18, tRP: 18, tRAS: 42, tRC: 60,
	tCCD: 0, // seamless at burst granularity
	tRRD: 5, tFAW: 20,
	tWR: 34, tWTR: 10, tRTP: 7.5, tRTW: 2.5,
	cl: 17, cwl: 9, tRFCab: 280, tREFI: 3906,
}
