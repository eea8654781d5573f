package tune

import (
	"fmt"
	"math/bits"
	"slices"

	"facil/internal/addr"
	"facil/internal/dram"
)

// Cost is the estimator's verdict on one candidate mapping.
type Cost struct {
	// EstCycles is the weighted cycle estimate across the trace segments
	// (lower is better). It is a ranking signal calibrated against the
	// full scheduler by the rank-agreement test, not a cycle-exact
	// prediction.
	EstCycles float64
	// RowHitRate is hits / (hits + activations) over the scored window.
	RowHitRate float64
	// Activations counts row activations over the scored window.
	Activations int64
	// MovedFrac is the exact fraction of bytes whose physical placement
	// differs from the baseline mapping (the re-layout cost axis),
	// computed from the GF(2) rank of the difference map.
	MovedFrac float64
}

// Evaluator is the tier-one replay cost model: it scores a Genome
// against a captured Trace with a per-bank open-row/activation estimator
// — no scheduler, no event loop. All state is preallocated; Score
// performs zero heap allocations in steady state, which is what lets
// the search push 10^4+ candidates through where the full scheduler
// manages 10^2.
//
// The model exploits that every candidate is GF(2)-linear over the page
// offset bits: each page bit contributes a fixed XOR pattern to the
// packed DRAM address, so translation of a burst code is two table
// lookups and one XOR. Packed DA layout (LSB to MSB): column, bank,
// rank, channel, then page-local row bits; row MSBs come from the page
// index untouched.
//
// An Evaluator is not safe for concurrent use; the search keeps a pool.
type Evaluator struct {
	space  *Space
	trace  *Trace
	window int // max bursts scored per segment (0 = all)

	colBits, puBits   uint
	bankBits, rankBit uint
	pageBits          uint
	pageRowBits       uint
	pageMask          uint32
	puMask            uint32
	missCost, tccd    int64

	contrib []uint32 // per-page-bit packed-DA contribution (scratch)
	base    []uint32 // baseline contributions for MovedFrac
	rowPos  []int    // page index of each page-local row bit (scratch)
	lo      [256]uint32
	hi      []uint32
	banks   []estBank  // per global bank
	chanT   []int64    // per channel: next cycle the data bus is free
	rc      replayCost // the last replay's weight-free result
}

// estBank is one bank's replay state: the next cycle it is free and
// its open row (^uint32(0) = none).
type estBank struct {
	t   int64
	row uint32
}

// NewEvaluator builds an evaluator for one space/trace pair. window
// bounds how many bursts of each segment are scored (0 = all); scores
// are scaled back to the full segment length so windowed and full
// scoring stay comparable.
func NewEvaluator(s *Space, trace *Trace, t dram.Timing, window int) (*Evaluator, error) {
	if trace == nil || len(trace.Codes) == 0 {
		return nil, fmt.Errorf("tune: evaluator needs a non-empty trace")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	g := s.MC.Geometry
	missCost := int64(t.TRP + t.TRCD + t.TCCD)
	if int64(t.TRC) > missCost {
		missCost = int64(t.TRC)
	}
	nHi := 1
	if s.pageBits > 8 {
		nHi = 1 << (s.pageBits - 8)
	}
	e := &Evaluator{
		space:       s,
		trace:       trace,
		window:      window,
		colBits:     uint(s.colBits),
		puBits:      uint(s.puBits),
		bankBits:    uint(s.bankBits),
		rankBit:     uint(s.rankBits),
		pageBits:    uint(s.pageBits),
		pageRowBits: uint(s.pageRowBits),
		pageMask:    uint32(1)<<uint(s.pageBits) - 1,
		puMask:      uint32(1)<<uint(s.puBits) - 1,
		missCost:    missCost,
		tccd:        int64(t.TCCD),
		contrib:     make([]uint32, s.pageBits),
		base:        make([]uint32, s.pageBits),
		rowPos:      make([]int, s.pageRowBits),
		hi:          make([]uint32, nHi),
		banks:       make([]estBank, g.TotalBanks()),
		chanT:       make([]int64, g.Channels),
		rc:          replayCost{cycles: make([]float64, len(trace.Segments))},
	}
	return e, nil
}

// fillContrib computes each page bit's packed-DA contribution vector for
// g into out, folding the XOR hash terms into their row-source bits.
// Zero allocations on the success path.
func (e *Evaluator) fillContrib(g Genome, out []uint32) error {
	if err := e.space.Validate(g); err != nil {
		return err
	}
	var n [6]int
	for i, k := range g.Fields {
		var pos uint
		switch k {
		case addr.FieldColumn:
			pos = uint(n[k])
		case addr.FieldBank:
			pos = e.colBits + uint(n[k])
		case addr.FieldRank:
			pos = e.colBits + e.bankBits + uint(n[k])
		case addr.FieldChannel:
			pos = e.colBits + e.bankBits + e.rankBit + uint(n[k])
		case addr.FieldRow:
			e.rowPos[n[k]] = i
			pos = e.colBits + e.puBits + uint(n[k])
		}
		out[i] = 1 << pos
		n[k]++
	}
	for _, p := range g.XOR {
		var pos uint
		if p.Target == addr.FieldBank {
			pos = e.colBits + uint(p.TargetBit)
		} else {
			pos = e.colBits + e.bankBits + e.rankBit + uint(p.TargetBit)
		}
		out[e.rowPos[p.RowBit]] ^= 1 << pos
	}
	return nil
}

// SetBaseline fixes the mapping every candidate's MovedFrac is measured
// against (typically the MapID select_mapping would pick).
func (e *Evaluator) SetBaseline(g Genome) error {
	return e.fillContrib(g, e.base)
}

// prepare compiles a genome into the translation LUTs: lut[x] extends
// lut[x with lowest bit cleared] by one page bit's contribution, so the
// build is one XOR per table entry.
func (e *Evaluator) prepare(g Genome) error {
	if err := e.fillContrib(g, e.contrib); err != nil {
		return err
	}
	e.lo[0] = 0
	nLo := 256
	if e.pageBits < 8 {
		nLo = 1 << e.pageBits
	}
	for x := 1; x < nLo; x++ {
		e.lo[x] = e.lo[x&(x-1)] ^ e.contrib[bits.TrailingZeros32(uint32(x))]
	}
	e.hi[0] = 0
	for x := 1; x < len(e.hi); x++ {
		e.hi[x] = e.hi[x&(x-1)] ^ e.contrib[8+bits.TrailingZeros32(uint32(x))]
	}
	return nil
}

// replayCost is the weight-free part of a candidate's score: each trace
// segment's completion cycles (scaled back to the full segment when the
// window cuts it short) and the hit and activation totals. Segment
// weights play no part, so traces that differ only in weights share it.
type replayCost struct {
	cycles     []float64
	hits, acts int64
}

// clone returns a copy that owns its cycles.
func (rc *replayCost) clone() replayCost {
	c := *rc
	c.cycles = slices.Clone(rc.cycles)
	return c
}

// Score evaluates one candidate: the weight-free replay, weighted by
// the trace's segment weights, plus the re-layout cost against the
// baseline. Steady state performs zero heap allocations (gated by
// TestEstimatorZeroAllocs).
func (e *Evaluator) Score(g Genome) (Cost, error) {
	if err := e.replay(g); err != nil {
		return Cost{}, err
	}
	return e.weigh(&e.rc), nil
}

// weigh turns a weight-free replay of the genome whose contributions
// e.contrib holds into its Cost: the weighted cycle sum in segment
// order, and the exact moved fraction against the baseline.
func (e *Evaluator) weigh(rc *replayCost) Cost {
	// Re-layout cost: two GF(2)-linear maps agree exactly on the kernel
	// of their difference, so the moved fraction is 1 - 2^-rank(diff).
	var basis [32]uint32
	rank := 0
	for i := range e.contrib {
		v := e.contrib[i] ^ e.base[i]
		for v != 0 {
			b := bits.Len32(v) - 1
			if basis[b] == 0 {
				basis[b] = v
				rank++
				break
			}
			v ^= basis[b]
		}
	}
	var total float64
	for si, seg := range e.trace.Segments {
		total += seg.Weight * rc.cycles[si]
	}
	c := Cost{EstCycles: total, Activations: rc.acts, MovedFrac: 1 - 1/float64(uint64(1)<<uint(rank))}
	if hm := rc.hits + rc.acts; hm > 0 {
		c.RowHitRate = float64(rc.hits) / float64(hm)
	}
	return c
}

// replay runs the weight-free part of Score into e.rc with a paced
// virtual-time replay: bursts arrive at the memory system's peak
// consumption rate (one per channel per cycle, matching SimScore's
// pacing), each burst issues when its arrival, its channel bus and its
// bank are all free, a row miss holds the bank for the activation
// penalty, and the segment's score is the last completion cycle. That
// is three running maxes per burst — no scheduler, no event loop — yet
// it captures both channel-level serialization and per-bank row
// locality, the two effects that separate mappings.
func (e *Evaluator) replay(g Genome) error {
	if err := e.prepare(g); err != nil {
		return err
	}
	rowShift := e.colBits + e.puBits
	chShift := e.bankBits + e.rankBit
	chBits := uint(0)
	for 1<<chBits < len(e.chanT) {
		chBits++
	}
	// The hot loop reads its tables and constants from locals: stores
	// through the slices would otherwise make the compiler reload every
	// field of e on each burst. Every shift count is below 32 (a packed
	// DA fits a uint32), and masking it says so, which spares each shift
	// Go's fix-up for counts of 32 and more.
	lo, hi := &e.lo, e.hi
	banks, chanT := e.banks, e.chanT
	pageMask, pageBits, pageRowBits := e.pageMask, e.pageBits&31, e.pageRowBits&31
	colBits, puMask := e.colBits&31, e.puMask
	rowShift, chShift, chBits = rowShift&31, chShift&31, chBits&31
	tccd, missCost := e.tccd, e.missCost
	e.rc.hits, e.rc.acts = 0, 0
	for si, seg := range e.trace.Segments {
		for i := range banks {
			banks[i] = estBank{row: ^uint32(0)}
		}
		for i := range chanT {
			chanT[i] = 0
		}
		segLen := seg.End - seg.Start
		scored := segLen
		if e.window > 0 && scored > e.window {
			scored = e.window
		}
		codes := e.trace.Codes[seg.Start : seg.Start+scored]
		var end, acts int64
		for i, code := range codes {
			pb := code & pageMask
			da := lo[pb&0xff] ^ hi[pb>>8]
			gb := (da >> colBits) & puMask
			row := (da >> rowShift) | (code>>pageBits)<<pageRowBits

			issue := int64(i) >> chBits // paced arrival
			ch := gb >> chShift
			b := &banks[gb]
			issue = max(issue, chanT[ch], b.t)
			serv := tccd
			if b.row != row {
				b.row = row
				serv = missCost
				acts++
			}
			chanT[ch] = issue + tccd
			b.t = issue + serv
			end = max(end, issue+serv)
		}
		cyc := float64(end)
		if scored < segLen {
			cyc *= float64(segLen) / float64(scored)
		}
		e.rc.cycles[si] = cyc
		e.rc.hits += int64(len(codes)) - acts
		e.rc.acts += acts
	}
	return nil
}
