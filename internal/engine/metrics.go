package engine

import "fmt"

// PrefillThreshold returns the smallest prefill length at which the SoC
// path (including any re-layout the design pays) beats running the
// prefill on PIM. The paper profiles this offline for the hybrid-dynamic
// baseline and for FACIL (Sec. VI-C).
func (s *System) PrefillThreshold(k Kind) (int, error) {
	const maxProbe = 512
	for l := 1; l <= maxProbe; l++ {
		socT, err := s.prefill(k, l, routeStatic)
		if err != nil {
			return 0, err
		}
		pimT, err := s.pimPrefill(l)
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

// TTFT returns the time-to-first-token of a design at prefill length l,
// with the design's own prefill routing: HybridDynamic and FACIL run the
// prefill on PIM when that is faster (the paper's offline-profiled
// per-length choice, Sec. VI-C). Results are memoized; an invalid
// length or design is an error and is never cached.
func (s *System) TTFT(k Kind, l int) (float64, error) {
	return s.prefill(k, l, routeDynamic)
}

// TTFTStatic returns FACIL's TTFT without the dynamic prefill offload
// (used for the single-query study of Figs. 13-14, where FACIL always
// runs prefill on the SoC). Results are memoized; an invalid length
// or design is an error and is never cached.
func (s *System) TTFTStatic(k Kind, l int) (float64, error) {
	return s.prefill(k, l, routeStatic)
}

// prefill serves both TTFT routes from the System's prefill memo.
// Designs that never offload prefill share the static entry.
func (s *System) prefill(k Kind, l int, route prefillRoute) (float64, error) {
	if l <= 0 {
		return 0, fmt.Errorf("engine: prefill length %d must be positive", l)
	}
	if k != HybridDynamic && k != FACIL {
		route = routeStatic
	}
	if l > memoMaxPrefill {
		return s.prefillSeconds(k, l, route)
	}
	return s.prefillCache.Do(prefillKey{kind: k, l: l, route: route}, func() (float64, error) {
		return s.prefillSeconds(k, l, route)
	})
}

// prefillSeconds computes one prefill memo entry.
func (s *System) prefillSeconds(k Kind, l int, route prefillRoute) (float64, error) {
	if route == routeStatic {
		return s.prefillPathSoC(k, l)
	}
	socT, err := s.prefill(k, l, routeStatic)
	if err != nil {
		return 0, err
	}
	pimT, err := s.pimPrefill(l)
	if err != nil {
		return 0, err
	}
	if pimT < socT {
		return pimT, nil
	}
	return socT, nil
}

// pimPrefill is prefillPIMSeconds memoized by length.
func (s *System) pimPrefill(l int) (float64, error) {
	if l > memoMaxPrefill {
		return s.prefillPIMSeconds(l)
	}
	return s.pimPrefillCache.Do(l, func() (float64, error) {
		return s.prefillPIMSeconds(l)
	})
}

// DecodeSeconds sums decode steps for tokens 2..decode (the first token
// comes out of prefill), with the KV context growing from prefill+1.
// Results are served from the System's running-sum rows and equal the
// step-by-step sum bit for bit.
func (s *System) DecodeSeconds(k Kind, prefill, decode int) (float64, error) {
	if decode <= 0 {
		return 0, fmt.Errorf("engine: decode length %d must be positive", decode)
	}
	path, ok := decodePath(k)
	if !ok || prefill < 0 || prefill > memoMaxPrefill || decode > memoMaxDecode {
		return s.decodeLoop(k, prefill, decode)
	}
	row, _ := s.decodeRows.Do(decodeRowKey{path: path, l: prefill}, func() (*decodeRow, error) {
		return &decodeRow{sums: []float64{0}}, nil
	})
	row.mu.Lock()
	defer row.mu.Unlock()
	for j := len(row.sums); j < decode; j++ {
		st, err := s.DecodeStepSeconds(path, prefill+j)
		if err != nil {
			return 0, err
		}
		row.sums = append(row.sums, row.sums[j-1]+st)
	}
	return row.sums[decode-1], nil
}

// decodePath maps a design to the representative of the designs whose
// decode steps are identical: the four PIM designs run the same
// linear+attention+other step, and SoC-only runs its own.
func decodePath(k Kind) (Kind, bool) {
	switch k {
	case SoCOnly:
		return SoCOnly, true
	case HybridStatic, HybridDynamic, FACIL, WeightDuplication:
		return FACIL, true
	default:
		return 0, false
	}
}

// decodeLoop is DecodeSeconds without the memo, for lengths past its
// bounds and for unknown designs.
func (s *System) decodeLoop(k Kind, prefill, decode int) (float64, error) {
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
