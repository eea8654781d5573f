package engine

import "fmt"

// PrefillThreshold returns the smallest prefill length at which the SoC
// path (including any re-layout the design pays) beats running the
// prefill on PIM. The paper profiles this offline for the hybrid-dynamic
// baseline and for FACIL (Sec. VI-C).
func (s *System) PrefillThreshold(k Kind) (int, error) {
	const maxProbe = 512
	for l := 1; l <= maxProbe; l++ {
		socT, err := s.prefillPathSoC(k, l)
		if err != nil {
			return 0, err
		}
		pimT, err := s.prefillPIMSeconds(l)
		if err != nil {
			return 0, err
		}
		if socT < pimT {
			return l, nil
		}
	}
	return maxProbe + 1, nil
}

// prefillPathSoC is the SoC prefill route of a design: FACIL reads the
// PIM layout directly (slowdown, no re-layout); the hybrid designs
// re-layout first; the rest use the conventional copy.
func (s *System) prefillPathSoC(k Kind, l int) (float64, error) {
	switch k {
	case FACIL:
		return s.prefillSoCSeconds(l, true), nil
	case HybridStatic, HybridDynamic:
		re, err := s.relayoutAllWeightsSeconds()
		if err != nil {
			return 0, err
		}
		return re + s.prefillSoCSeconds(l, false), nil
	case SoCOnly, WeightDuplication:
		return s.prefillSoCSeconds(l, false), nil
	default:
		return 0, fmt.Errorf("engine: unknown design %v", k)
	}
}

// TTFT returns the time-to-first-token of a design at prefill length l.
func (s *System) TTFT(k Kind, l int) (float64, error) {
	if l <= 0 {
		return 0, fmt.Errorf("engine: prefill length %d must be positive", l)
	}
	socT, err := s.prefillPathSoC(k, l)
	if err != nil {
		return 0, err
	}
	switch k {
	case HybridDynamic, FACIL:
		// These designs route short prefills to PIM.
		pimT, err := s.prefillPIMSeconds(l)
		if err != nil {
			return 0, err
		}
		if pimT < socT {
			return pimT, nil
		}
		return socT, nil
	default:
		return socT, nil
	}
}

// TTFTStatic returns FACIL's TTFT without the dynamic prefill offload
// (used for the single-query study of Figs. 13-14, where FACIL always
// runs prefill on the SoC). Results are memoized; an invalid length
// or design is an error and is never cached.
func (s *System) TTFTStatic(k Kind, l int) (float64, error) {
	if l <= 0 {
		return 0, fmt.Errorf("engine: prefill length %d must be positive", l)
	}
	return s.prefillCache.Do(prefillKey{kind: k, l: l}, func() (float64, error) {
		return s.prefillPathSoC(k, l)
	})
}

// DecodeSeconds sums decode steps for tokens 2..decode (the first token
// comes out of prefill), with the KV context growing from prefill+1.
func (s *System) DecodeSeconds(k Kind, prefill, decode int) (float64, error) {
	if decode <= 0 {
		return 0, fmt.Errorf("engine: decode length %d must be positive", decode)
	}
	var t float64
	for step := 1; step < decode; step++ {
		st, err := s.DecodeStepSeconds(k, prefill+step)
		if err != nil {
			return 0, err
		}
		t += st
	}
	return t, nil
}

// TTLT returns the time-to-last-token for a (prefill, decode) pair.
func (s *System) TTLT(k Kind, prefill, decode int) (float64, error) {
	ttft, err := s.TTFT(k, prefill)
	if err != nil {
		return 0, err
	}
	dec, err := s.DecodeSeconds(k, prefill, decode)
	if err != nil {
		return 0, err
	}
	return ttft + dec, nil
}

// TTLTStatic is TTLT with the static prefill route (Figs. 13-14).
func (s *System) TTLTStatic(k Kind, prefill, decode int) (float64, error) {
	ttft, err := s.TTFTStatic(k, prefill)
	if err != nil {
		return 0, err
	}
	dec, err := s.DecodeSeconds(k, prefill, decode)
	if err != nil {
		return 0, err
	}
	return ttft + dec, nil
}

// Speedup divides baseline time by design time for the same query.
func Speedup(baseline, t float64) float64 {
	if t <= 0 {
		return 0
	}
	return baseline / t
}
