// Package fault models deterministic, seed-driven fault injection for
// the SoC-PIM serving stack: per-replica PIM-decode-lane failure and
// recovery windows (scheduled and stochastic), thermal-throttle windows
// that derate DRAM bandwidth through a raised refresh rate, and
// MapID/PTE bit corruption. A Scenario is a pure description — the
// serving simulator (internal/serve) owns the consequences (failover,
// degradation, retries), and internal/dram measures the thermal
// slowdown instead of assuming it.
//
// Everything is reproducible: the stochastic windows come from a
// per-replica PRNG derived from Scenario.Seed with a SplitMix64 hash,
// so the same scenario yields byte-identical fault schedules at any
// sweep parallelism.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultRefreshMult is the refresh-rate multiplier inside every thermal
// window: JEDEC-style temperature-doubled refresh (tREFI halved).
const DefaultRefreshMult = 2

// Window is one half-open fault interval [Start, End) in simulated
// seconds.
type Window struct {
	// Start is when the fault begins.
	Start float64
	// End is when the fault clears; must exceed Start.
	End float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Scenario describes one fault-injection schedule. The zero value is
// the empty scenario: no faults, provably zero-impact on a run (the
// simulator draws no fault randomness and schedules no fault events).
type Scenario struct {
	// Seed drives the stochastic windows and any downstream fault
	// randomness (corruption draws, backoff jitter) so runs are
	// reproducible. Independent of the serving traffic seed.
	Seed int64

	// LaneMTBF is the mean up-time between stochastic PIM-lane
	// failures of one replica, in seconds (exponentially distributed).
	// 0 disables stochastic lane failures.
	LaneMTBF float64
	// LaneMTTR is the mean repair time of a stochastic lane failure in
	// seconds (exponentially distributed). Required positive when
	// LaneMTBF is set — a lane that never repairs would deadlock the
	// no-failover policies.
	LaneMTTR float64
	// LaneWindows holds scheduled per-replica PIM-lane outages:
	// LaneWindows[i] applies to replica i (replicas beyond the slice
	// get none). Each replica's windows must be sorted and
	// non-overlapping.
	LaneWindows [][]Window

	// Thermal holds fleet-wide thermal-throttle windows (sorted,
	// non-overlapping). Inside one, the DRAM refresh rate is raised by
	// DefaultRefreshMult and every lane slows by the *measured*
	// throughput ratio (see dram.ThrottleFactor).
	Thermal []Window

	// MapIDCorruptRate is the per-admitted-query probability that the
	// query's weight-page MapID (the PTE bits of paper Fig. 11) is
	// corrupted by a flipped bit before decode starts.
	MapIDCorruptRate float64
}

// Empty reports whether the scenario injects nothing. The serving
// simulator treats an empty scenario as "fault layer off": no extra RNG
// draws, no extra events, byte-identical results to a build without the
// layer.
func (s Scenario) Empty() bool {
	return s.LaneMTBF == 0 && len(s.LaneWindows) == 0 &&
		len(s.Thermal) == 0 && s.MapIDCorruptRate == 0
}

// Validate rejects non-physical or non-terminating scenarios (NaN/Inf
// anywhere, unsorted or overlapping windows, stochastic failures
// without a repair rate).
func (s Scenario) Validate() error {
	if bad(s.LaneMTBF) || s.LaneMTBF < 0 {
		return fmt.Errorf("fault: LaneMTBF must be a finite non-negative duration, got %g", s.LaneMTBF)
	}
	if bad(s.LaneMTTR) || s.LaneMTTR < 0 {
		return fmt.Errorf("fault: LaneMTTR must be a finite non-negative duration, got %g", s.LaneMTTR)
	}
	if s.LaneMTBF > 0 && s.LaneMTTR <= 0 {
		return fmt.Errorf("fault: stochastic lane failures (LaneMTBF=%g) require LaneMTTR > 0", s.LaneMTBF)
	}
	for ri, ws := range s.LaneWindows {
		if err := validateWindows(fmt.Sprintf("LaneWindows[%d]", ri), ws); err != nil {
			return err
		}
	}
	if err := validateWindows("Thermal", s.Thermal); err != nil {
		return err
	}
	if bad(s.MapIDCorruptRate) || s.MapIDCorruptRate < 0 || s.MapIDCorruptRate > 1 {
		return fmt.Errorf("fault: MapIDCorruptRate must be a probability in [0,1], got %g", s.MapIDCorruptRate)
	}
	return nil
}

// validateWindows checks one sorted, non-overlapping window list.
func validateWindows(name string, ws []Window) error {
	prevEnd := 0.0
	for i, w := range ws {
		if bad(w.Start) || bad(w.End) || w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("fault: %s[%d] must satisfy 0 <= Start < End with finite bounds, got [%g, %g)", name, i, w.Start, w.End)
		}
		if w.Start < prevEnd {
			return fmt.Errorf("fault: %s[%d] overlaps or precedes the previous window (start %g < previous end %g)", name, i, w.Start, prevEnd)
		}
		prevEnd = w.End
	}
	return nil
}

// bad reports a NaN or infinity.
func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// ThermalAt reports whether t falls inside a thermal-throttle window.
// Windows are sorted, so the scan stops at the first window starting
// after t.
func (s Scenario) ThermalAt(t float64) bool {
	for _, w := range s.Thermal {
		if t < w.Start {
			return false
		}
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// Lanes returns replica ri's lane-outage stream: scheduled windows
// merged with the stochastic failure/repair process, in start order.
// Each replica owns an independent PRNG derived from (Seed, ri), so
// streams are reproducible and replica-independent.
func (s Scenario) Lanes(ri int) *LaneFaults {
	lf := &LaneFaults{}
	if ri < len(s.LaneWindows) {
		lf.sched = s.LaneWindows[ri]
	}
	if s.LaneMTBF > 0 {
		lf.mtbf, lf.mttr = s.LaneMTBF, s.LaneMTTR
		lf.rng = rand.New(rand.NewSource(int64(SplitMix64(uint64(s.Seed) + uint64(ri)*0x9E3779B97F4A7C15))))
	}
	return lf
}

// LaneFaults is a lazy, ordered stream of one replica's PIM-lane outage
// windows. It is not safe for concurrent use; each simulator run pulls
// from its own generators.
type LaneFaults struct {
	sched []Window
	si    int

	rng        *rand.Rand
	mtbf, mttr float64
	clock      float64 // end of the last stochastic window drawn
	stoch      Window
	haveStoch  bool
}

// Next returns the next outage window, or ok=false when the stream is
// exhausted (purely-scheduled streams end; stochastic streams are
// infinite — the consumer stops pulling once its simulation drains).
func (lf *LaneFaults) Next() (Window, bool) {
	if lf.rng != nil && !lf.haveStoch {
		up := lf.mtbf * lf.rng.ExpFloat64()
		down := lf.mttr * lf.rng.ExpFloat64()
		lf.stoch = Window{Start: lf.clock + up, End: lf.clock + up + down}
		lf.clock = lf.stoch.End
		lf.haveStoch = true
	}
	schedOK := lf.si < len(lf.sched)
	switch {
	case schedOK && (!lf.haveStoch || lf.sched[lf.si].Start <= lf.stoch.Start):
		w := lf.sched[lf.si]
		lf.si++
		return w, true
	case lf.haveStoch:
		lf.haveStoch = false
		return lf.stoch, true
	default:
		return Window{}, false
	}
}

// SplitMix64 is the SplitMix64 finalizer — a cheap, well-distributed
// hash that derives independent seeds from one seed: per-replica fault
// streams here, per-device arrival and fault seeds in the fleet router.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
