package tune

import (
	"fmt"

	"facil/internal/addr"
	"facil/internal/dram"
)

// SimResult is the full-scheduler verdict on one mapping.
type SimResult struct {
	// SimCycles is the weighted completion-cycle sum across the trace
	// segments under the bit-identical dram.Channel scheduler.
	SimCycles float64
	// RowHitRate is the scheduler's aggregate row-buffer hit rate.
	RowHitRate float64
	// Bytes is the total data replayed.
	Bytes int64
}

// SimScore is the tier-two validator: it replays the full trace through
// the real FR-FCFS controller (ReplaySegments) under mapping m and
// returns the weighted cycle score the estimator approximates.
func SimScore(spec dram.Spec, tr *Trace, m addr.Translator) (SimResult, error) {
	segs, err := ReplaySegments(spec, tr, m)
	if err != nil {
		return SimResult{}, err
	}
	return tr.Weigh(segs), nil
}

// ReplaySegments replays each trace segment under mapping m on a fresh
// controller, paced at one burst per channel per cycle (peak rate) so a
// mapping that concentrates traffic on few channels queues rather than
// being reordered away. Segment weights play no part: traces that differ
// only in weights replay once and Weigh apart.
func ReplaySegments(spec dram.Spec, tr *Trace, m addr.Translator) ([]dram.StreamResult, error) {
	if tr == nil || len(tr.Codes) == 0 {
		return nil, fmt.Errorf("tune: cannot replay an empty trace")
	}
	offBits := uint(spec.Geometry.OffsetBits())
	channels := int64(spec.Geometry.Channels)
	out := make([]dram.StreamResult, len(tr.Segments))
	for si, seg := range tr.Segments {
		i := seg.Start
		var emitted int64
		src := func(r *dram.Request) bool {
			if i >= seg.End {
				return false
			}
			pa := uint64(tr.Codes[i]) << offBits
			a, _ := m.Translate(pa)
			*r = dram.Request{Addr: a, Arrival: emitted / channels}
			emitted++
			i++
			return true
		}
		res, err := dram.MeasureStream(spec, src, 0)
		if err != nil {
			return nil, err
		}
		out[si] = res
	}
	return out, nil
}

// Weigh combines the trace's per-segment replays into the weighted
// score, summing in segment order.
func (t *Trace) Weigh(segs []dram.StreamResult) SimResult {
	var out SimResult
	var hits, misses int64
	for si, seg := range t.Segments {
		out.SimCycles += seg.Weight * float64(segs[si].Cycles)
		out.Bytes += segs[si].Bytes
		hits += segs[si].Stats.RowHits
		misses += segs[si].Stats.RowMisses
	}
	if hm := hits + misses; hm > 0 {
		out.RowHitRate = float64(hits) / float64(hm)
	}
	return out
}
