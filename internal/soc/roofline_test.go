package soc

import (
	"math"
	"testing"
)

func TestGEMVIsMemoryBound(t *testing.T) {
	// Paper Fig. 2(b): GEMV compute utilization stays below 1% while
	// memory bandwidth is heavily utilized, across the four Llama3-8B
	// projection dimensions.
	dims := []Linear{
		{L: 1, In: 4096, Out: 4096, DTypeBytes: 2},  // Q/O proj
		{L: 1, In: 4096, Out: 1024, DTypeBytes: 2},  // K/V proj (GQA)
		{L: 1, In: 4096, Out: 14336, DTypeBytes: 2}, // FC1 (gate/up)
		{L: 1, In: 14336, Out: 4096, DTypeBytes: 2}, // FC2 (down)
	}
	for _, op := range dims {
		u := Jetson.UtilizationOf(op)
		if u.Compute >= 0.01 {
			t.Errorf("GEMV %dx%d compute util = %.4f, want < 1%%", op.In, op.Out, u.Compute)
		}
		if u.Memory < 0.5 {
			t.Errorf("GEMV %dx%d memory util = %.2f, want high", op.In, op.Out, u.Memory)
		}
	}
}

func TestGEMMSublinearUntilRidge(t *testing.T) {
	// Doubling L below the ridge point must cost much less than 2x.
	op := func(l int) Linear { return Linear{L: l, In: 4096, Out: 4096, DTypeBytes: 2} }
	t8 := Jetson.Seconds(op(8))
	t16 := Jetson.Seconds(op(16))
	if r := t16 / t8; r > 1.2 {
		t.Errorf("L 8->16 scaled time by %.2f, want sublinear", r)
	}
	// Far above the ridge, scaling approaches linear.
	t1k := Jetson.Seconds(op(1024))
	t2k := Jetson.Seconds(op(2048))
	if r := t2k / t1k; r < 1.8 {
		t.Errorf("L 1024->2048 scaled time by %.2f, want near-linear", r)
	}
}

func TestRooflineCrossoverAtRidge(t *testing.T) {
	for _, p := range All() {
		ridge := p.RidgePoint()
		// Well below ridge: memory-bound fraction ~1.
		low := Linear{L: 1, In: 4096, Out: 4096, DTypeBytes: 2}
		if ai := low.ArithmeticIntensity(); ai >= ridge {
			t.Fatalf("%s: GEMV AI %.1f not below ridge %.1f", p.Name, ai, ridge)
		}
		if f := p.MemoryBoundFraction(low); f < 0.99 {
			t.Errorf("%s: below-ridge memory fraction = %.2f", p.Name, f)
		}
		// Far above ridge: compute-bound, memory fraction < 1.
		high := Linear{L: 4096, In: 4096, Out: 4096, DTypeBytes: 2}
		if ai := high.ArithmeticIntensity(); ai > ridge {
			if f := p.MemoryBoundFraction(high); f >= 1 {
				t.Errorf("%s: above-ridge memory fraction = %.2f", p.Name, f)
			}
		}
	}
}

func TestLinearAccounting(t *testing.T) {
	op := Linear{L: 4, In: 100, Out: 200, DTypeBytes: 2}
	if got, want := op.FLOPs(), 2.0*4*100*200; got != want {
		t.Errorf("FLOPs = %g, want %g", got, want)
	}
	wantBytes := float64(100*200*2 + 4*100*2 + 4*200*2)
	if got := op.Bytes(); got != wantBytes {
		t.Errorf("Bytes = %g, want %g", got, wantBytes)
	}
	if err := (Linear{L: 0, In: 1, Out: 1, DTypeBytes: 2}).Validate(); err == nil {
		t.Error("L=0 accepted")
	}
	if err := (Linear{L: 1, In: 1, Out: 1, DTypeBytes: 0}).Validate(); err == nil {
		t.Error("dtype 0 accepted")
	}
}

func TestSecondsOnPIMLayoutAppliesSlowdown(t *testing.T) {
	op := Linear{L: 64, In: 4096, Out: 4096, DTypeBytes: 2}
	base := Jetson.Seconds(op)
	pim := Jetson.SecondsOnPIMLayout(op)
	want := base * 1.021
	if math.Abs(pim-want)/want > 1e-12 {
		t.Errorf("PIM-layout time = %g, want %g", pim, want)
	}
}

func TestGEMVTimeMatchesBandwidth(t *testing.T) {
	// A decode GEMV should take ~weightBytes / effective bandwidth.
	op := Linear{L: 1, In: 4096, Out: 4096, DTypeBytes: 2}
	got := Jetson.Seconds(op)
	want := op.Bytes() / (Jetson.EffectiveBWGBs() * 1e9)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("GEMV seconds = %g, want %g", got, want)
	}
}
