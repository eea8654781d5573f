package dram

import (
	"strings"
	"sync"
	"testing"
)

func TestDerated(t *testing.T) {
	spec, err := LPDDR5("thermal base", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	d := spec.Derated(2)
	if d.Timing.TREFI >= spec.Timing.TREFI {
		t.Fatalf("Derated(2) TREFI %d not below nominal %d", d.Timing.TREFI, spec.Timing.TREFI)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("derated spec invalid: %v", err)
	}
	if !strings.Contains(d.Name, "refresh x2") {
		t.Fatalf("derated name %q does not mark the derate", d.Name)
	}
	if spec.Derated(1) != spec {
		t.Fatal("Derated(1) must be the identity")
	}
	// Extreme multipliers clamp TREFI so ranks still make progress.
	x := spec.Derated(1e9)
	if x.Timing.TREFI <= x.Timing.TRFCab {
		t.Fatalf("clamped TREFI %d does not exceed TRFCab %d", x.Timing.TREFI, x.Timing.TRFCab)
	}
}

func TestThrottleFactorMeasured(t *testing.T) {
	spec, err := LPDDR5("thermal measure", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ThrottleFactor(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= 1 {
		t.Fatalf("doubled refresh measured no slowdown: factor %g", f2)
	}
	if f2 > 1.5 {
		t.Fatalf("doubled refresh factor %g implausibly large", f2)
	}
	f4, err := ThrottleFactor(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f4 <= f2 {
		t.Fatalf("refresh x4 factor %g not above x2 factor %g", f4, f2)
	}
	again, err := ThrottleFactor(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again != f2 {
		t.Fatalf("memoized factor %g != first measurement %g", again, f2)
	}
	if f, err := ThrottleFactor(spec, 1); err != nil || f != 1 {
		t.Fatalf("mult 1 = (%g, %v), want (1, nil)", f, err)
	}
}

// TestThrottleFactorKeyedBySpec pins the memo key to the whole spec: a
// spec that keeps another's name but triples TRFCab pays a larger refresh
// tax, so each must get the factor measured on its own timing.
func TestThrottleFactorKeyedBySpec(t *testing.T) {
	a, err := LPDDR5("thermal same name", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Timing.TRFCab *= 3
	var got [2]float64
	for i, s := range []Spec{a, b} {
		base, err := throttleCycles(s)
		if err != nil {
			t.Fatal(err)
		}
		derated, err := throttleCycles(s.Derated(2))
		if err != nil {
			t.Fatal(err)
		}
		want := max(1, float64(derated)/float64(base))
		if got[i], err = ThrottleFactor(s, 2); err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("spec %d (TRFCab %d): factor %.4f, want %.4f", i, s.Timing.TRFCab, got[i], want)
		}
	}
	if got[1] <= got[0] {
		t.Errorf("TRFCab x3 factor %.4f not above nominal %.4f", got[1], got[0])
	}
}

// TestThrottleFactorConcurrent calls ThrottleFactor on one cold key from
// several goroutines at once, as parallel sweep points do (a probe for
// the memo's locking under -race): every caller gets the same factor.
func TestThrottleFactorConcurrent(t *testing.T) {
	spec, err := LPDDR5("thermal concurrent", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := ThrottleFactor(spec, 3)
			if err != nil {
				t.Error(err)
			}
			got[i] = f
		}(i)
	}
	wg.Wait()
	for i, f := range got {
		if f != got[0] || f <= 1 {
			t.Errorf("caller %d got factor %g (caller 0: %g), want one factor > 1", i, f, got[0])
		}
	}
}
