package soc

import "fmt"

// Linear describes one linear operator Y[L,Out] = X[L,In] · W[In,Out]
// executed with batch (sequence) length L.
type Linear struct {
	// L is the number of input rows (1 for decode GEMV, the prefill
	// length for prefill GEMM).
	L int
	// In and Out are the weight dimensions.
	In, Out int
	// DTypeBytes is the element size.
	DTypeBytes int
}

// Validate rejects degenerate shapes.
func (op Linear) Validate() error {
	if op.L <= 0 || op.In <= 0 || op.Out <= 0 {
		return fmt.Errorf("soc: linear shape (%d,%d,%d) must be positive", op.L, op.In, op.Out)
	}
	if op.DTypeBytes <= 0 {
		return fmt.Errorf("soc: element size %d must be positive", op.DTypeBytes)
	}
	return nil
}

// FLOPs returns 2·L·In·Out.
func (op Linear) FLOPs() float64 {
	return 2 * float64(op.L) * float64(op.In) * float64(op.Out)
}

// Bytes returns the minimum DRAM traffic: weights + activations + outputs.
func (op Linear) Bytes() float64 {
	d := float64(op.DTypeBytes)
	w := float64(op.In) * float64(op.Out) * d
	x := float64(op.L) * float64(op.In) * d
	y := float64(op.L) * float64(op.Out) * d
	return w + x + y
}

// ArithmeticIntensity returns FLOPs/Bytes.
func (op Linear) ArithmeticIntensity() float64 {
	return op.FLOPs() / op.Bytes()
}

// Seconds returns the roofline execution time of the op on the platform:
// FLOPs divided by min(peak FLOPS, AI × effective bandwidth). This mirrors
// the paper's observation that GEMM latency grows sublinearly with prefill
// length until the arithmetic intensity reaches the ridge point.
func (p Platform) Seconds(op Linear) float64 {
	ai := op.ArithmeticIntensity()
	attainable := ai * p.EffectiveBWGBs() * 1e9
	peak := p.PeakTFLOPS * 1e12
	if attainable > peak {
		attainable = peak
	}
	return op.FLOPs() / attainable
}

// MemorySeconds returns the memory-traffic component alone.
func (p Platform) MemorySeconds(op Linear) float64 {
	return op.Bytes() / (p.EffectiveBWGBs() * 1e9)
}

// MemoryBoundFraction returns how much of the op's roofline time is
// memory-bound: 1 when below the ridge point, decreasing above it.
func (p Platform) MemoryBoundFraction(op Linear) float64 {
	f := p.MemorySeconds(op) / p.Seconds(op)
	if f > 1 {
		return 1
	}
	return f
}

// SecondsOnPIMLayout returns the op time when the weights stay in the
// PIM-optimized layout, applying the platform's conservative worst-case
// slowdown (paper Table III / Sec. VI-A: "we conservatively choose the
// worst-case slowdown for each device ... and scale its GEMM latency").
func (p Platform) SecondsOnPIMLayout(op Linear) float64 {
	return p.Seconds(op) * (1 + p.GEMMSlowdown)
}

// Utilization reports the compute and memory-bandwidth utilization of an
// op, as in paper Fig. 2(b).
type Utilization struct {
	Compute float64
	Memory  float64
}

// UtilizationOf evaluates utilization at the op's roofline runtime.
func (p Platform) UtilizationOf(op Linear) Utilization {
	t := p.Seconds(op)
	return Utilization{
		Compute: op.FLOPs() / (t * p.PeakTFLOPS * 1e12),
		Memory:  op.Bytes() / (t * p.PeakBWGBs() * 1e9),
	}
}
