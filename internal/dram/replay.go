package dram

import "facil/internal/parallel"

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

// MeasureStream feeds a request stream through a fresh controller with
// the given FR-FCFS window on every channel (0 keeps DefaultWindow) and
// summarizes the achieved bandwidth. Requests are enqueued by value, with
// their stated arrival cycles, as the source produces them.
//
// A channel whose queue passes 2d entries is drained to d = min(window,
// 2048). FR-FCFS only sees the oldest window entries. For windows up to
// 2048, d is the window, so every step of a drain still has more than
// window requests queued and sees the same visible set as with the whole
// stream enqueued up front: the schedule is exact while the replay keeps
// only about 2*window slots per channel, so arbitrarily long traces use
// bounded memory. Windows above 2048 keep the 4096 bound, whose drains
// see fewer entries than the window. Every drain runs under
// Channel.DrainUpTo's step budget, so a scheduler that stops completing
// requests fails the replay with an error instead of hanging it.
func MeasureStream(spec Spec, src RequestSource, window int) (StreamResult, error) {
	ctl, err := NewController(spec)
	if err != nil {
		return StreamResult{}, err
	}
	if window > 0 {
		for i := 0; i < spec.Geometry.Channels; i++ {
			ctl.Channel(i).SetWindow(window)
		}
	} else {
		window = DefaultWindow
	}
	drainTo := min(window, 2048)
	var r Request
	for src(&r) {
		if err := ctl.EnqueueValue(r); err != nil {
			return StreamResult{}, err
		}
		ch := ctl.channels[r.Addr.Channel]
		if ch.Pending() > 2*drainTo {
			if err := ch.DrainUpTo(drainTo); err != nil {
				return StreamResult{}, err
			}
		}
	}
	done, err := ctl.Drain()
	if err != nil {
		return StreamResult{}, err
	}
	stats := ctl.Stats()
	Global.record(ctl, stats, done)
	res := StreamResult{
		Cycles: done,
		Stats:  stats,
	}
	res.Seconds = spec.Timing.Seconds(done)
	res.Bytes = (stats.Reads + stats.Writes) * int64(spec.Geometry.TransferBytes)
	if res.Seconds > 0 {
		res.BandwidthGBs = float64(res.Bytes) / res.Seconds / 1e9
	}
	if hm := stats.RowHits + stats.RowMisses; hm > 0 {
		res.RowHitRate = float64(stats.RowHits) / float64(hm)
	}
	return res, nil
}

// replays memoizes MeasureStreamKeyed by key. Keys compare as
// interfaces, so packages' private key types never collide.
var replays parallel.Flight[any, StreamResult]

// MeasureStreamKeyed is MeasureStream memoized process-wide by key.
// Concurrent misses on one key replay once; an error reaches every
// waiter but is not cached. key must be comparable and must determine
// spec, window and every request src yields; callers use a private key
// type per package. Memo hits do not count in Global.
func MeasureStreamKeyed(key any, spec Spec, src RequestSource, window int) (StreamResult, error) {
	return replays.Do(key, func() (StreamResult, error) {
		return MeasureStream(spec, src, window)
	})
}
