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

// prefill serves both TTFT routes from the System's prefill tables.
// Designs that never offload prefill share the static table.
func (s *System) prefill(k Kind, l int, route prefillRoute) (float64, error) {
	if l <= 0 {
		return 0, fmt.Errorf("engine: prefill length %d must be positive", l)
	}
	if uint(k) >= uint(numKinds) {
		return 0, fmt.Errorf("engine: unknown design %v", k)
	}
	if k != HybridDynamic && k != FACIL {
		route = routeStatic
	}
	return s.prefills[k][route].memo(l, memoMaxPrefill+1, func() (float64, error) {
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
		return min(pimT, socT), nil
	})
}

// pimPrefill is prefillPIMSeconds served from its table.
func (s *System) pimPrefill(l int) (float64, error) {
	return s.pimPrefills.memo(l, memoMaxPrefill+1, func() (float64, error) {
		return s.prefillPIMSeconds(l)
	})
}

// DecodeSeconds sums decode steps for tokens 2..decode (the first token
// comes out of prefill), with the KV context growing from prefill+1.
// Results are served from the System's running-sum rows: entry j of the
// (design, prefill) row holds steps 1..j added left to right, the order
// decodeLoop adds them, so it equals the loop bit for bit.
func (s *System) DecodeSeconds(k Kind, prefill, decode int) (float64, error) {
	if decode <= 0 {
		return 0, fmt.Errorf("engine: decode length %d must be positive", decode)
	}
	if uint(k) >= uint(numKinds) {
		return 0, fmt.Errorf("engine: unknown design %v", k)
	}
	if uint(prefill) > memoMaxPrefill || decode > memoMaxDecode {
		return s.decodeLoop(k, prefill, decode)
	}
	row := &s.decodeRows[k][prefill]
	if v := row.get(decode - 1); v != 0 || decode == 1 {
		return v, nil
	}
	// Extend the longest computed prefix of the row.
	j := decode - 2
	for j > 0 && row.get(j) == 0 {
		j--
	}
	sum := row.get(j)
	for j++; j < decode; j++ {
		st, err := s.DecodeStepSeconds(k, prefill+j)
		if err != nil {
			return 0, err
		}
		sum += st
		row.put(j, memoMaxDecode, sum)
	}
	return sum, nil
}

// decodeLoop is DecodeSeconds without the rows, for lengths past its
// bounds.
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
