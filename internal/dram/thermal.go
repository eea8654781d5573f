package dram

import (
	"fmt"
	"sync"
)

// Derated returns a copy of the spec with refresh issued mult times
// more often — the JEDEC high-temperature operating mode (mult 2 is the
// standard temperature-doubled refresh, tREFI halved). TREFI is clamped
// so a rank still makes forward progress between refreshes. mult <= 1
// returns the spec unchanged.
func (s Spec) Derated(mult float64) Spec {
	if mult <= 1 || s.Timing.TREFI <= 0 {
		return s
	}
	d := s
	d.Name = fmt.Sprintf("%s (refresh x%g)", s.Name, mult)
	trefi := int(float64(s.Timing.TREFI) / mult)
	if min := s.Timing.TRFCab + 1; trefi < min {
		trefi = min
	}
	d.Timing.TREFI = trefi
	return d
}

// throttleCache memoizes ThrottleFactor per (spec, multiplier): the
// measurement replays a fixed stream twice through the cycle-level
// channel, so sweep points sharing a platform pay for it once. The key
// is the whole spec, so two specs that share a name but differ in
// timing or geometry are measured apart. The lock is held across a
// measurement, so sweep points that miss on one key together measure it
// once.
var throttleCache struct {
	sync.Mutex
	m map[throttleKey]float64
}

type throttleKey struct {
	spec Spec
	mult float64
}

// throttleStreamBursts sizes the measurement stream: long enough to
// span many tREFI intervals (LPDDR5-6400: one refresh per ~1562 busy
// burst cycles), so the refresh tax converges.
const throttleStreamBursts = 16384

// ThrottleFactor measures how much a thermal-throttle window slows the
// memory system: the ratio of the cycles a fixed saturating read stream
// needs under refresh-derated timing (Derated(mult)) to the cycles it
// needs at nominal timing. The slowdown is measured on the cycle-level
// channel simulator — refresh blocks the rank for TRFCab every TREFI —
// not assumed from a formula. The result is >= 1 and deterministic;
// repeated calls for the same spec and multiplier are served from a
// process-wide cache.
func ThrottleFactor(s Spec, mult float64) (float64, error) {
	if mult <= 1 {
		return 1, nil
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	key := throttleKey{s, mult}
	throttleCache.Lock()
	defer throttleCache.Unlock()
	if f, ok := throttleCache.m[key]; ok {
		return f, nil
	}
	base, err := throttleCycles(s)
	if err != nil {
		return 0, err
	}
	derated, err := throttleCycles(s.Derated(mult))
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, fmt.Errorf("dram: throttle measurement of %q produced no cycles", s.Name)
	}
	f := max(1, float64(derated)/float64(base))
	if throttleCache.m == nil {
		throttleCache.m = make(map[throttleKey]float64)
	}
	throttleCache.m[key] = f
	return f, nil
}

// throttleCycles replays the measurement stream on one channel of the
// spec and returns the completion cycle. One channel suffices: refresh
// is a per-rank constraint, so the single-channel slowdown ratio is the
// system's.
func throttleCycles(s Spec) (int64, error) {
	one := s
	one.Geometry.Channels = 1
	g := one.Geometry
	cols := g.ColumnsPerRow()
	// A row-major sequential sweep: every column of a row, then the
	// next bank's row (round-robin over ranks and banks). The stream
	// saturates the data bus, so any extra cycles are refresh tax. It
	// is generated on demand, one burst per pull.
	emitted, row, bank, rank, col := 0, 0, 0, 0, 0
	res, err := MeasureStream(one, func(r *Request) bool {
		if emitted >= throttleStreamBursts {
			return false
		}
		*r = Request{Addr: Addr{
			Channel: 0, Rank: rank, Bank: bank, Row: row, Column: col,
		}}
		emitted++
		col++
		if col == cols {
			col = 0
			bank++
			if bank == g.BanksPerRank {
				bank = 0
				rank++
				if rank == g.RanksPerChannel {
					rank = 0
					row = (row + 1) % g.Rows
				}
			}
		}
		return true
	}, 0)
	return res.Cycles, err
}
