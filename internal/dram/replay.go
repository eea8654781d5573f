package dram

// RequestSource is a pull-style request generator: each call fills *r
// with the next request of the stream and returns true, or returns false
// when the stream is exhausted. Sources let arbitrarily long traces
// replay without materializing a request slice — the replay loop reuses
// one Request value for the whole stream.
type RequestSource func(r *Request) bool

// SliceSource adapts a value slice to a RequestSource. The slice is read,
// never written (completion cycles are not reported back), so one slice
// can feed many replays — including concurrent ones — without copying.
func SliceSource(reqs []Request) RequestSource {
	i := 0
	return func(r *Request) bool {
		if i >= len(reqs) {
			return false
		}
		*r = reqs[i]
		i++
		return true
	}
}

// ReplayStream feeds a request stream through a fresh controller and
// returns the completion cycle along with controller statistics.
// Requests are enqueued by value, with their stated arrival cycles, as
// the source produces them; a channel queue past 4096 entries is
// drained incrementally, so arbitrarily long traces use bounded memory
// per channel.
func ReplayStream(spec Spec, src RequestSource) (int64, ChannelStats, error) {
	return replayStreamWindow(spec, src, 0)
}

func replayStreamWindow(spec Spec, src RequestSource, window int) (int64, ChannelStats, error) {
	ctl, err := NewController(spec)
	if err != nil {
		return 0, ChannelStats{}, err
	}
	if window > 0 {
		for i := 0; i < spec.Geometry.Channels; i++ {
			ctl.Channel(i).SetWindow(window)
		}
	}
	const maxQueue = 4096
	var r Request
	for src(&r) {
		if err := ctl.EnqueueValue(r); err != nil {
			return 0, ChannelStats{}, err
		}
		ch := ctl.channels[r.Addr.Channel]
		if ch.Pending() > maxQueue {
			ch.DrainUpTo(maxQueue / 2)
		}
	}
	done := ctl.Drain()
	stats := ctl.Stats()
	Global.record(stats, done)
	return done, stats, nil
}

// StreamResult summarizes a replayed stream.
type StreamResult struct {
	// Cycles is the completion cycle of the last request.
	Cycles int64
	// Seconds is Cycles converted to wall-clock time.
	Seconds float64
	// Bytes is the total data moved.
	Bytes int64
	// BandwidthGBs is Bytes / Seconds in GB/s.
	BandwidthGBs float64
	// RowHitRate is hits / (hits + misses).
	RowHitRate float64
	Stats      ChannelStats
}

// MeasureStreamFunc replays a pull source on spec and summarizes achieved
// bandwidth.
func MeasureStreamFunc(spec Spec, src RequestSource) (StreamResult, error) {
	return MeasureStreamFuncWindow(spec, src, 0)
}

// MeasureStreamFuncWindow is MeasureStreamFunc with an explicit FR-FCFS
// reorder window on every channel (0 keeps the default).
func MeasureStreamFuncWindow(spec Spec, src RequestSource, window int) (StreamResult, error) {
	cycles, stats, err := replayStreamWindow(spec, src, window)
	if err != nil {
		return StreamResult{}, err
	}
	return summarize(spec, cycles, stats), nil
}

func summarize(spec Spec, cycles int64, stats ChannelStats) StreamResult {
	res := StreamResult{
		Cycles: cycles,
		Stats:  stats,
	}
	res.Seconds = spec.Timing.Seconds(cycles)
	res.Bytes = (stats.Reads + stats.Writes) * int64(spec.Geometry.TransferBytes)
	if res.Seconds > 0 {
		res.BandwidthGBs = float64(res.Bytes) / res.Seconds / 1e9
	}
	if hm := stats.RowHits + stats.RowMisses; hm > 0 {
		res.RowHitRate = float64(stats.RowHits) / float64(hm)
	}
	return res
}
