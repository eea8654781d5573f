package tune

import (
	"fmt"

	"facil/internal/addr"
	"facil/internal/dram"
)

// splitmix64 is the deterministic probe generator for the sampled
// bijection check (no math/rand allocation in the scoring path).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// VerifyBijection runs the PA-DA bijection property check every
// candidate must pass before scoring: zero, every single-bit basis
// address (sufficient to pin down a GF(2)-linear map) and `samples`
// seeded random addresses must translate to in-geometry DRAM addresses
// and round-trip exactly through Inverse. The exhaustive full-page
// variant lives in the property tests; this probe set is the per-
// candidate gate.
func VerifyBijection(m addr.Translator, g dram.Geometry, samples int, seed uint64) error {
	mask := uint64(1)<<uint(g.AddressBits()) - 1
	probe := func(pa uint64) error {
		a, off := m.Translate(pa)
		if !a.Valid(g) {
			return fmt.Errorf("tune: PA %#x translates outside the geometry (%s)", pa, a)
		}
		if off < 0 || off >= g.TransferBytes {
			return fmt.Errorf("tune: PA %#x translates to burst offset %d", pa, off)
		}
		if back := m.Inverse(a, off); back != pa {
			return fmt.Errorf("tune: PA %#x round-trips to %#x", pa, back)
		}
		return nil
	}
	if err := probe(0); err != nil {
		return err
	}
	for b := 0; b < g.AddressBits(); b++ {
		if err := probe(uint64(1) << uint(b)); err != nil {
			return err
		}
	}
	x := seed
	for i := 0; i < samples; i++ {
		x = splitmix64(x)
		if err := probe(x & mask); err != nil {
			return err
		}
	}
	return nil
}
