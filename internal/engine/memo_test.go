package engine

import (
	"math"
	"sync"
	"testing"

	"facil/internal/llm"
	"facil/internal/soc"
)

// TestTTFTStaticMemoConcurrent storms a cold System's prefill memo from
// eight goroutines and requires every result to equal the unmemoized
// SoC prefill path bit for bit. Invalid inputs keep failing: a
// non-positive length is rejected before the memo, and an unknown
// design's error is returned on every call rather than cached.
func TestTTFTStaticMemoConcurrent(t *testing.T) {
	s, err := NewSystem(soc.Jetson, llm.Llama3_8B(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const maxL = 512
	want := make(map[Kind][]float64)
	for _, k := range Kinds() {
		want[k] = make([]float64, maxL+1)
		for l := 1; l <= maxL; l++ {
			if want[k][l], err = s.prefillPathSoC(k, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxL; i++ {
				// Each goroutine walks the lengths from a different
				// offset so misses on one key race from several sides.
				l := 1 + (i+g*maxL/8)%maxL
				for _, k := range Kinds() {
					got, err := s.TTFTStatic(k, l)
					if err != nil {
						errs <- err
						return
					}
					if math.Float64bits(got) != math.Float64bits(want[k][l]) {
						t.Errorf("TTFTStatic(%v, %d) = %v, want %v", k, l, got, want[k][l])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for _, l := range []int{0, -1} {
			if _, err := s.TTFTStatic(FACIL, l); err == nil {
				t.Errorf("call %d: TTFTStatic(FACIL, %d) succeeded", i, l)
			}
		}
		if _, err := s.TTFTStatic(Kind(99), 16); err == nil {
			t.Errorf("call %d: TTFTStatic(kind 99, 16) succeeded", i)
		}
	}
}

// TestTTFTStaticWarmZeroAllocs gates the memo's hit path at zero
// allocations: a serving sim reads it once per new prefill length.
func TestTTFTStaticWarmZeroAllocs(t *testing.T) {
	s := jetsonSystem(t)
	if _, err := s.TTFTStatic(FACIL, 64); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.TTFTStatic(FACIL, 64); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm TTFTStatic allocates %v times per call, want 0", avg)
	}
}
