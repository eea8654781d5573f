package engine

import (
	"math"
	"sync"
	"testing"

	"facil/internal/llm"
	"facil/internal/soc"
)

// jetsonSystem returns the paper's primary configuration. The System is
// immutable and goroutine-safe, so all tests share one instance and its
// memoized latency caches instead of each paying a cold build.
var jetsonOnce = struct {
	sync.Once
	s   *System
	err error
}{}

func jetsonSystem(t *testing.T) *System {
	t.Helper()
	jetsonOnce.Do(func() {
		jetsonOnce.s, jetsonOnce.err = NewSystem(soc.Jetson, llm.Llama3_8B(), DefaultConfig())
	})
	if jetsonOnce.err != nil {
		t.Fatal(jetsonOnce.err)
	}
	return jetsonOnce.s
}

func TestFACILBeatsHybridStaticTTFT(t *testing.T) {
	s := jetsonSystem(t)
	for _, l := range []int{8, 16, 32, 64, 128} {
		base, err := s.TTFTStatic(HybridStatic, l)
		if err != nil {
			t.Fatal(err)
		}
		facil, err := s.TTFTStatic(FACIL, l)
		if err != nil {
			t.Fatal(err)
		}
		sp := Speedup(base, facil)
		if sp <= 1.2 {
			t.Errorf("P%d: FACIL TTFT speedup = %.2f, want > 1.2", l, sp)
		}
		if sp > 6 {
			t.Errorf("P%d: FACIL TTFT speedup = %.2f implausibly high", l, sp)
		}
	}
}

func TestTTFTSpeedupDiminishesWithPrefill(t *testing.T) {
	// Paper Fig. 13: longer prefills amortize the re-layout cost.
	s := jetsonSystem(t)
	prev := 0.0
	for i, l := range []int{8, 32, 128, 512} {
		base, err := s.TTFTStatic(HybridStatic, l)
		if err != nil {
			t.Fatal(err)
		}
		facil, err := s.TTFTStatic(FACIL, l)
		if err != nil {
			t.Fatal(err)
		}
		sp := Speedup(base, facil)
		if i > 0 && sp >= prev {
			t.Errorf("speedup not diminishing: %.2f at P%d after %.2f", sp, l, prev)
		}
		prev = sp
	}
}

func TestJetsonTTFTSpeedupInPaperBand(t *testing.T) {
	// Paper Fig. 13 Jetson geomean: 2.89x over P8-P128. Accept the
	// right ballpark (2x-4x geomean).
	s := jetsonSystem(t)
	prod := 1.0
	ls := []int{8, 16, 32, 64, 128}
	for _, l := range ls {
		base, err := s.TTFTStatic(HybridStatic, l)
		if err != nil {
			t.Fatal(err)
		}
		facil, err := s.TTFTStatic(FACIL, l)
		if err != nil {
			t.Fatal(err)
		}
		prod *= Speedup(base, facil)
	}
	geo := math.Pow(prod, 1.0/float64(len(ls)))
	if geo < 2.0 || geo > 4.0 {
		t.Errorf("Jetson TTFT geomean speedup = %.2f, paper reports 2.89", geo)
	}
}

func TestDecodeOnPIMFasterThanSoC(t *testing.T) {
	s := jetsonSystem(t)
	socStep, err := s.DecodeStepSeconds(SoCOnly, 64)
	if err != nil {
		t.Fatal(err)
	}
	pimStep, err := s.DecodeStepSeconds(FACIL, 64)
	if err != nil {
		t.Fatal(err)
	}
	sp := socStep / pimStep
	if sp < 2 {
		t.Errorf("PIM decode speedup = %.2f, want >= 2", sp)
	}
	if sp > 10 {
		t.Errorf("PIM decode speedup = %.2f implausibly high", sp)
	}
}

func TestPIMBeatsIdealNPU(t *testing.T) {
	// Paper Fig. 3: PIM decode beats even an ideal bandwidth-bound NPU
	// (3.32x on Jetson/Llama3-8B at seq 64).
	s := jetsonSystem(t)
	ideal := s.IdealNPUDecodeStepSeconds(64)
	pimStep, err := s.DecodeStepSeconds(FACIL, 64)
	if err != nil {
		t.Fatal(err)
	}
	sp := ideal / pimStep
	if sp < 2 || sp > 5 {
		t.Errorf("PIM vs ideal NPU = %.2f, paper reports 3.32", sp)
	}
}

func TestDecodeBreakdownMostlyLinear(t *testing.T) {
	// Paper Fig. 2(a): linear ops dominate (>90%) the SoC decode step.
	s := jetsonSystem(t)
	b, err := s.DecodeStepBreakdown(SoCOnly, 64)
	if err != nil {
		t.Fatal(err)
	}
	total := b.LinearSeconds + b.AttentionSeconds + b.OtherSeconds
	if frac := b.LinearSeconds / total; frac < 0.85 {
		t.Errorf("linear fraction = %.2f, want > 0.85", frac)
	}
}

func TestTTLTSpeedupAmortizesWithDecode(t *testing.T) {
	// Paper Fig. 14: the TTFT gain dilutes as decode grows; ~10% gain
	// remains at decode 64 on the paper's testbed.
	s := jetsonSystem(t)
	speedup := func(p, d int) float64 {
		base, err := s.TTLTStatic(HybridStatic, p, d)
		if err != nil {
			t.Fatal(err)
		}
		facil, err := s.TTLTStatic(FACIL, p, d)
		if err != nil {
			t.Fatal(err)
		}
		return Speedup(base, facil)
	}
	short := speedup(64, 8)
	long := speedup(64, 256)
	if short <= long {
		t.Errorf("TTLT speedup not amortizing: d8=%.3f d256=%.3f", short, long)
	}
	if long < 1.0 {
		t.Errorf("FACIL TTLT slower than baseline at long decode: %.3f", long)
	}
	mid := speedup(64, 64)
	if mid < 1.02 || mid > 1.6 {
		t.Errorf("TTLT speedup at P64/D64 = %.3f, paper reports ~1.1", mid)
	}
}

func TestHybridDynamicNeverWorseThanStatic(t *testing.T) {
	s := jetsonSystem(t)
	for _, l := range []int{1, 2, 4, 8, 32, 128} {
		st, err := s.TTFT(HybridStatic, l)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := s.TTFT(HybridDynamic, l)
		if err != nil {
			t.Fatal(err)
		}
		if dy > st+1e-12 {
			t.Errorf("P%d: dynamic TTFT %.4f worse than static %.4f", l, dy, st)
		}
	}
}

func TestPrefillThresholdOrdering(t *testing.T) {
	// FACIL pays no re-layout, so its SoC route wins at a shorter
	// prefill than the hybrid's (which must amortize the re-layout).
	s := jetsonSystem(t)
	facilTh, err := s.PrefillThreshold(FACIL)
	if err != nil {
		t.Fatal(err)
	}
	hybridTh, err := s.PrefillThreshold(HybridDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if facilTh > hybridTh {
		t.Errorf("FACIL threshold %d > hybrid threshold %d", facilTh, hybridTh)
	}
	if hybridTh <= 1 {
		t.Errorf("hybrid threshold = %d, expected re-layout to push it up", hybridTh)
	}
}

func TestWeightDuplicationFootprint(t *testing.T) {
	s := jetsonSystem(t)
	if s.WeightFootprint(WeightDuplication) != 2*s.WeightFootprint(FACIL) {
		t.Error("duplication footprint not 2x")
	}
	// And its TTFT matches SoC-only prefill (conventional copy, no
	// re-layout).
	a, err := s.TTFTStatic(WeightDuplication, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.TTFTStatic(SoCOnly, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("duplication TTFT %g != SoC-only %g", a, b)
	}
}

func TestSoCOnlyTTLTSuffersInDecode(t *testing.T) {
	// Paper Sec. VI-C: SoC-only can give fast TTFT but loses badly in
	// TTLT (3.55x on Alpaca).
	s := jetsonSystem(t)
	socT, err := s.TTLT(SoCOnly, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	facilT, err := s.TTLT(FACIL, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sp := socT / facilT; sp < 2 {
		t.Errorf("FACIL TTLT speedup over SoC-only = %.2f, want >= 2", sp)
	}
}

func TestAllPlatformsConstruct(t *testing.T) {
	models := map[string]llm.Model{
		soc.Jetson.Name:  llm.Llama3_8B(),
		soc.Macbook.Name: llm.Llama3_8B(),
		soc.IdeaPad.Name: llm.OPT_6_7B(),
		soc.IPhone.Name:  llm.Phi1_5(),
	}
	for _, p := range soc.All() {
		s, err := NewSystem(p, models[p.Name], DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		ttft, err := s.TTFTStatic(FACIL, 16)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if ttft <= 0 || ttft > 10 {
			t.Errorf("%s: FACIL TTFT = %g s implausible", p.Name, ttft)
		}
	}
}

func TestValidation(t *testing.T) {
	s := jetsonSystem(t)
	if _, err := s.TTFT(FACIL, 0); err == nil {
		t.Error("zero prefill accepted")
	}
	if _, err := s.DecodeSeconds(FACIL, 8, 0); err == nil {
		t.Error("zero decode accepted")
	}
	if _, err := s.DecodeStepSeconds(Kind(99), 8); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		SoCOnly: "SoC-only", HybridStatic: "hybrid static",
		HybridDynamic: "hybrid dynamic", FACIL: "FACIL",
		WeightDuplication: "weight duplication",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if len(Kinds()) != 5 {
		t.Errorf("Kinds() = %v", Kinds())
	}
}

// Kinds lists all designs in presentation order.
func Kinds() []Kind {
	return []Kind{SoCOnly, HybridStatic, HybridDynamic, FACIL, WeightDuplication}
}
