package dram

import (
	"fmt"
	"runtime"
	"testing"
)

// TestReplayBoundMatchesFullQueue pins the streaming replay's bounded
// queue to the unbounded schedule: replaying a stream through
// MeasureStreamFuncWindow, which drains each channel to min(window, 2048)
// once it passes twice that, must give the same cycles and stats as
// enqueueing the whole stream on a fresh Controller and draining it. The
// stream holds 4096 requests per channel, so the 3000-entry window stays
// inside the 4096 bound that windows above 2048 keep.
func TestReplayBoundMatchesFullQueue(t *testing.T) {
	spec, err := LPDDR5("test LPDDR5 2ch", 32, 6400, 2, 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	channels := spec.Geometry.Channels
	for _, window := range []int{0, 1, 4, 32, 128, 3000} {
		for si, shape := range []string{"sequential", "random", "hotrow"} {
			for pace, paceName := range paceNames {
				t.Run(fmt.Sprintf("window=%d/%s/%s", window, shape, paceName), func(t *testing.T) {
					reqs := diffStream(&spec, shape, pace, 4096*channels, int64(17*si+window+pace))
					for i := range reqs {
						reqs[i].Addr.Channel = i % channels
					}
					res, err := MeasureStreamFuncWindow(spec, SliceSource(reqs), window)
					if err != nil {
						t.Fatal(err)
					}
					ctl, err := NewController(spec)
					if err != nil {
						t.Fatal(err)
					}
					if window > 0 {
						for c := 0; c < channels; c++ {
							ctl.Channel(c).SetWindow(window)
						}
					}
					for _, r := range reqs {
						if err := ctl.EnqueueValue(r); err != nil {
							t.Fatal(err)
						}
					}
					if cycles := ctl.Drain(); res.Cycles != cycles {
						t.Fatalf("cycles: replay %d, full queue %d", res.Cycles, cycles)
					}
					if stats := ctl.Stats(); res.Stats != stats {
						t.Fatalf("stats diverged:\nreplay:     %+v\nfull queue: %+v", res.Stats, stats)
					}
				})
			}
		}
	}
}

// sequentialSource streams n requests that walk whole rows bank by bank,
// the locality pattern of a weight-streaming GEMV.
func sequentialSource(spec *Spec, n int) RequestSource {
	g := spec.Geometry
	cols := g.ColumnsPerRow()
	emitted := 0
	return func(r *Request) bool {
		if emitted >= n {
			return false
		}
		*r = Request{Addr: Addr{
			Bank:   (emitted / cols) % g.BanksPerRank,
			Rank:   (emitted / cols / g.BanksPerRank) % g.RanksPerChannel,
			Row:    (emitted / cols / g.BanksPerRank / g.RanksPerChannel) % g.Rows,
			Column: emitted % cols,
		}}
		emitted++
		return true
	}
}

// TestReplayStreamAllocBound is the replay allocation gate: a 64k-request
// ReplayStream keeps about two windows of slots per channel, so the whole
// replay, controller included, must allocate under 64 KiB.
func TestReplayStreamAllocBound(t *testing.T) {
	spec := smallSpec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := ReplayStream(spec, sequentialSource(&spec, 1<<16)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
		t.Fatalf("64k-request replay allocated %d bytes, want < %d", b, 64<<10)
	}
}
