package tune

import (
	"fmt"

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
// the real FR-FCFS controller (dram.MeasureStream) under mapping m
// and returns the weighted cycle score the estimator approximates. Each
// segment is replayed on a fresh controller, paced at the memory
// system's peak consumption rate (one burst per channel per cycle) so a
// mapping that concentrates traffic on few channels exhibits queueing
// rather than being reordered away.
func SimScore(spec dram.Spec, tr *Trace, m Translator) (SimResult, error) {
	if tr == nil || len(tr.Codes) == 0 {
		return SimResult{}, fmt.Errorf("tune: cannot replay an empty trace")
	}
	var out SimResult
	var hits, misses int64
	offBits := uint(spec.Geometry.OffsetBits())
	channels := int64(spec.Geometry.Channels)
	for _, seg := range tr.Segments {
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
			return SimResult{}, err
		}
		out.SimCycles += seg.Weight * float64(res.Cycles)
		out.Bytes += res.Bytes
		hits += res.Stats.RowHits
		misses += res.Stats.RowMisses
	}
	if hm := hits + misses; hm > 0 {
		out.RowHitRate = float64(hits) / float64(hm)
	}
	return out, nil
}
