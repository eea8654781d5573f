package sched

import (
	"testing"

	"facil/internal/dram"
)

func schedSpec() dram.Spec {
	s, _ := dram.LPDDR5("sched test", 16, 6400, 2, 256<<20) // 1 channel
	return s
}

func TestCosimulateAllPolicies(t *testing.T) {
	spec := schedSpec()
	w := DefaultWorkload()
	results := map[Policy]Result{}
	for _, p := range Policies() {
		r, err := Cosimulate(spec, w, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if r.SoCFinished != w.SoCRequests {
			t.Errorf("%v: %d/%d SoC requests finished", p, r.SoCFinished, w.SoCRequests)
		}
		if r.PIMSlowdown < 0.999 {
			t.Errorf("%v: PIM ran faster than isolated (%.3f)", p, r.PIMSlowdown)
		}
		if r.SoCMeanLatency <= 0 {
			t.Errorf("%v: no SoC latency recorded", p)
		}
		results[p] = r
	}

	// PIM-first: the PIM job is unharmed, SoC traffic starves the most.
	if results[PIMFirst].PIMSlowdown > 1.05 {
		t.Errorf("PIM-first slowed PIM by %.3f", results[PIMFirst].PIMSlowdown)
	}
	if results[PIMFirst].SoCMeanLatency <= results[SoCFirst].SoCMeanLatency {
		t.Errorf("PIM-first SoC latency (%.0f) not above SoC-first (%.0f)",
			results[PIMFirst].SoCMeanLatency, results[SoCFirst].SoCMeanLatency)
	}
	// SoC-first trades PIM time for SoC latency.
	if results[SoCFirst].PIMSlowdown <= results[PIMFirst].PIMSlowdown {
		t.Errorf("SoC-first did not slow PIM: %.3f vs %.3f",
			results[SoCFirst].PIMSlowdown, results[PIMFirst].PIMSlowdown)
	}
	// Dual row buffer dominates: near-isolated PIM time AND lower SoC
	// latency than either shared-buffer policy.
	if results[DualRowBuffer].PIMSlowdown > results[SoCFirst].PIMSlowdown {
		t.Errorf("dual row buffer PIM slowdown %.3f worse than SoC-first %.3f",
			results[DualRowBuffer].PIMSlowdown, results[SoCFirst].PIMSlowdown)
	}
	if results[DualRowBuffer].SoCMeanLatency >= results[PIMFirst].SoCMeanLatency {
		t.Errorf("dual row buffer SoC latency %.0f not below PIM-first %.0f",
			results[DualRowBuffer].SoCMeanLatency, results[PIMFirst].SoCMeanLatency)
	}
}

func TestCosimulateValidation(t *testing.T) {
	spec := schedSpec()
	w := DefaultWorkload()
	w.PIMPasses = 0
	if _, err := Cosimulate(spec, w, PIMFirst); err == nil {
		t.Error("zero passes accepted")
	}
	w = DefaultWorkload()
	w.SoCRate = 0
	if _, err := Cosimulate(spec, w, PIMFirst); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range Policies() {
		if p.String() == "" {
			t.Errorf("empty name for policy %d", p)
		}
	}
}

func TestSoCStreamPacing(t *testing.T) {
	spec := schedSpec()
	w := DefaultWorkload()
	reqs := socStream(spec, w)
	if len(reqs) != w.SoCRequests {
		t.Fatalf("stream length %d", len(reqs))
	}
	// Arrivals are non-decreasing and pace at ~1/rate.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
	span := float64(reqs[len(reqs)-1].Arrival)
	wantSpan := float64(w.SoCRequests) / w.SoCRate
	if span < 0.9*wantSpan || span > 1.1*wantSpan {
		t.Errorf("arrival span %.0f, want ~%.0f", span, wantSpan)
	}
}

// TestInterleavePathConsumesReadyRequests pins the interleave mechanism
// itself — the HasReady/StepOne loop that slips SoC requests into free
// command slots between PIM MACs; the SoC stream arrives in order, so
// HasReady reads only the queue head. If interleaving broke (HasReady
// stuck false mid-pass, or StepOne refusing queue work between all-bank ops),
// every SoC request would wait for the PIM job tail and the mean latency
// would be on the order of the whole job; with interleaving it must sit
// far below that.
func TestInterleavePathConsumesReadyRequests(t *testing.T) {
	spec := schedSpec()
	w := DefaultWorkload()
	r, err := Cosimulate(spec, w, DualRowBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if r.SoCMeanLatency >= float64(r.PIMCycles)/2 {
		t.Errorf("mean SoC latency %.0f suggests no interleaving (PIM job spans %d cycles)",
			r.SoCMeanLatency, r.PIMCycles)
	}
	// P99 must also stay below the job span: interleaving serves the
	// tail of the SoC stream during the job, not after it.
	if r.SoCP99Latency >= float64(r.PIMCycles) {
		t.Errorf("p99 SoC latency %.0f not below PIM job span %d", r.SoCP99Latency, r.PIMCycles)
	}
}

func TestHigherSoCRateHurtsMore(t *testing.T) {
	spec := schedSpec()
	low := DefaultWorkload()
	low.SoCRate = 0.05
	high := DefaultWorkload()
	high.SoCRate = 0.5
	rLow, err := Cosimulate(spec, low, SoCFirst)
	if err != nil {
		t.Fatal(err)
	}
	rHigh, err := Cosimulate(spec, high, SoCFirst)
	if err != nil {
		t.Fatal(err)
	}
	if rHigh.PIMSlowdown < rLow.PIMSlowdown {
		t.Errorf("heavier SoC traffic reduced PIM slowdown: %.3f vs %.3f",
			rHigh.PIMSlowdown, rLow.PIMSlowdown)
	}
}
