package dram

import (
	"math"
	"testing"
)

func TestPresetPeakBandwidth(t *testing.T) {
	cases := []struct {
		spec Spec
		want float64 // GB/s, from paper Table II
	}{
		{JetsonOrinLPDDR5, 204.8},
		{MacbookLPDDR5, 409.6},
		{IdeaPadLPDDR5X, 59.736},
		{IPhoneLPDDR5, 51.2},
	}
	for _, c := range cases {
		got := c.spec.PeakBandwidthGBs()
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("%s: peak BW = %.1f GB/s, want %.1f", c.spec.Name, got, c.want)
		}
	}
}

func TestPresetCapacities(t *testing.T) {
	cases := []struct {
		spec Spec
		want int64
	}{
		{JetsonOrinLPDDR5, 64 * GiB},
		{MacbookLPDDR5, 64 * GiB},
		{IdeaPadLPDDR5X, 32 * GiB},
		{IPhoneLPDDR5, 8 * GiB},
	}
	for _, c := range cases {
		if got := c.spec.Geometry.CapacityBytes(); got != c.want {
			t.Errorf("%s: capacity = %d, want %d", c.spec.Name, got, c.want)
		}
	}
}

func TestBurstCycleNS(t *testing.T) {
	// 32 B over 16 pins at 6400 Mbps: 16 beats at 6.4 Gb/s/pin = 2.5 ns.
	got := burstCycleNS(32, 16, 6400)
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("burstCycleNS = %g, want 2.5", got)
	}
}

func TestTimingValidate(t *testing.T) {
	tm := JetsonOrinLPDDR5.Timing
	if err := tm.Validate(); err != nil {
		t.Fatalf("preset timing invalid: %v", err)
	}
	bad := tm
	bad.TRC = 1
	if err := bad.Validate(); err == nil {
		t.Error("TRC < TRAS+TRP accepted")
	}
	bad = tm
	bad.TCCD = 0
	if err := bad.Validate(); err == nil {
		t.Error("TCCD = 0 accepted")
	}
	bad = tm
	bad.CycleNS = 0
	if err := bad.Validate(); err == nil {
		t.Error("CycleNS = 0 accepted")
	}
}

func TestTimingRoundTrip(t *testing.T) {
	tm := JetsonOrinLPDDR5.Timing
	// Seconds(Cycles(x)) must round up, never down.
	for _, ns := range []float64{1, 2.5, 17.9, 42, 280} {
		c := tm.Cycles(ns)
		if got := float64(c) * tm.CycleNS; got < ns {
			t.Errorf("Cycles(%g ns) = %d cycles = %g ns, rounded down", ns, c, got)
		}
	}
	if tm.Cycles(0) != 0 || tm.Cycles(-5) != 0 {
		t.Error("non-positive durations must map to 0 cycles")
	}
}

func TestLPDDR5Errors(t *testing.T) {
	if _, err := LPDDR5("bad", 100, 6400, 2, 64*GiB); err == nil {
		t.Error("bus width not multiple of 16 accepted")
	}
	if _, err := LPDDR5("bad", 256, 6400, 2, 3*GiB); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
}
