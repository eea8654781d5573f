package dram

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReplayBoundMatchesFullQueue pins the streaming replay's bounded
// queue to the unbounded schedule: replaying a stream through
// MeasureStream, which drains each channel to min(window, 2048)
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
					res, err := MeasureStream(spec, SliceSource(reqs), window)
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
// MeasureStream keeps about two windows of slots per channel, so the whole
// replay, controller included, must allocate under 64 KiB.
func TestReplayStreamAllocBound(t *testing.T) {
	spec := smallSpec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := MeasureStream(spec, sequentialSource(&spec, 1<<16), 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
		t.Fatalf("64k-request replay allocated %d bytes, want < %d", b, 64<<10)
	}
}

// memoKey is the test's private replay-key type; no other package's key
// can equal it. Each test draws fresh keys from memoKeys, so repeated
// runs in one process (-count) start cold.
type memoKey struct{ n int64 }

var memoKeys atomic.Int64

// TestMeasureStreamKeyed pins the process memo: the first call on a key
// replays its stream (one more stream in Global), a second call is
// served without replaying or pulling its source, concurrent cold
// misses on one key pull a single source, and every caller sees one
// result.
func TestMeasureStreamKeyed(t *testing.T) {
	spec := smallSpec()
	want, err := MeasureStream(spec, sequentialSource(&spec, 4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	var pulled atomic.Int64
	counted := func() RequestSource {
		src := sequentialSource(&spec, 4096)
		first := true
		return func(r *Request) bool {
			if first {
				first = false
				pulled.Add(1)
			}
			return src(r)
		}
	}
	key := memoKey{memoKeys.Add(1)}
	before := Global.Streams()
	got, err := MeasureStreamKeyed(key, spec, counted(), 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MeasureStreamKeyed(key, spec, counted(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := Global.Streams() - before; n != 1 {
		t.Errorf("two calls on one key made %d replays, want 1", n)
	}
	if got != want || again != want {
		t.Errorf("memoized result differs from a direct replay:\n%+v\n%+v\nwant %+v", got, again, want)
	}

	pulled.Store(0)
	cold := memoKey{memoKeys.Add(1)}
	res := make([]StreamResult, 8)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := MeasureStreamKeyed(cold, spec, counted(), 0)
			if err != nil {
				t.Error(err)
			}
			res[i] = r
		}(i)
	}
	wg.Wait()
	if n := pulled.Load(); n != 1 {
		t.Errorf("%d concurrent misses on one key pulled %d sources, want 1", len(res), n)
	}
	for i, r := range res {
		if r != want {
			t.Errorf("caller %d got %+v, want %+v", i, r, want)
		}
	}
}

// TestMeasureStreamKeyedErrorNotCached: a failed replay's error reaches
// its caller but is not memoized, so the next call on the key replays.
func TestMeasureStreamKeyedErrorNotCached(t *testing.T) {
	spec := smallSpec()
	key := memoKey{memoKeys.Add(1)}
	bad := SliceSource([]Request{{Addr: Addr{Channel: spec.Geometry.Channels}}})
	if _, err := MeasureStreamKeyed(key, spec, bad, 0); err == nil {
		t.Fatal("out-of-range channel replayed without error")
	}
	res, err := MeasureStreamKeyed(key, spec, sequentialSource(&spec, 64), 0)
	if err != nil {
		t.Fatalf("retry after a failed replay: %v", err)
	}
	if res.Stats.Reads != 64 {
		t.Errorf("retry replayed %d reads, want 64", res.Stats.Reads)
	}
}
