package vm

import (
	"math/rand"
	"testing"
)

// checkRegionFree asserts the region counters against a frame-by-frame
// count of every region (including a partial tail) and their sum against
// FreeFrames.
func checkRegionFree(t testing.TB, b *Buddy, step int) {
	t.Helper()
	var sum int64
	for r := range b.regionFree {
		want := int32(0)
		for f := r * FramesPerHugePage; f < min((r+1)*FramesPerHugePage, b.frames); f++ {
			if b.frameFree[f] {
				want++
			}
		}
		if got := b.regionFree[r]; got != want {
			t.Fatalf("step %d: regionFree[%d] = %d, frame scan counts %d", step, r, got, want)
		}
		sum += int64(want)
	}
	if sum != b.FreeFrames() {
		t.Fatalf("step %d: region counters sum to %d, FreeFrames = %d", step, sum, b.FreeFrames())
	}
}

// driveBuddy builds a buddy over `frames` frames and replays ops, three
// bytes per step (kind, a, b), checking the region counters after every
// step. Steps mix order-k allocations, frees of arbitrary aligned in-use
// ranges (so coalescing runs through and above HugeOrder), huge-page
// allocations that may compact, and fragmentation synthesis. Operation
// errors are legitimate (exhaustion, orders above maxOrder, memory below
// one region); only the counters are under test.
func driveBuddy(t testing.TB, frames, maxOrder int, ops []byte) {
	t.Helper()
	b, err := NewBuddy(frames, maxOrder)
	if err != nil {
		t.Fatal(err)
	}
	checkRegionFree(t, b, -1)
	cursor := 0
	for step := 0; step+2 < len(ops); step += 3 {
		kind, a, v := ops[step], int(ops[step+1]), int(ops[step+2])
		switch kind % 4 {
		case 0:
			_, _ = b.Alloc(a % (b.maxOrder + 1))
		case 1:
			order := a % (b.maxOrder + 1)
			s := ((a<<8 | v) % frames) &^ (1<<order - 1)
			used := s+1<<order <= frames
			for f := s; used && f < s+1<<order; f++ {
				used = !b.frameFree[f]
			}
			if used {
				if err := b.Free(s, order); err != nil {
					t.Fatalf("step %d: free of in-use block (%d, order %d): %v", step, s, order, err)
				}
			}
		case 2:
			_, _, _ = b.AllocHugePage(&cursor, a%8)
		case 3:
			free := int64((a<<8 | v) % (frames + 1))
			_ = SynthesizeFragmentation(b, free, float64(v%5)/4, rand.New(rand.NewSource(int64(a))))
		}
		checkRegionFree(t, b, step)
	}
}

// TestRegionFreeMatchesScan replays random operation streams over frame
// counts that are and are not multiples of a region (including a buddy
// smaller than one region), with maxOrder below, at and above HugeOrder.
func TestRegionFreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, frames := range []int{100, FramesPerHugePage, 3*FramesPerHugePage + 77, 8 * FramesPerHugePage} {
		for _, maxOrder := range []int{4, HugeOrder - 1, HugeOrder, HugeOrder + 3} {
			ops := make([]byte, 3*300)
			rng.Read(ops)
			driveBuddy(t, frames, maxOrder, ops)
		}
	}
}

// FuzzBuddyRegionFree fuzzes the region counters over arbitrary buddy
// sizes, order caps and operation streams.
func FuzzBuddyRegionFree(f *testing.F) {
	f.Add(uint16(100), uint8(4), []byte{0, 2, 0, 1, 2, 9, 3, 1, 40})
	f.Add(uint16(3*FramesPerHugePage+77), uint8(HugeOrder), []byte{3, 1, 200, 2, 0, 0, 1, 9, 3, 2, 5, 0})
	f.Add(uint16(8*FramesPerHugePage), uint8(HugeOrder+3), []byte{0, 11, 0, 0, 0, 0, 1, 11, 0, 3, 7, 4, 2, 3, 0})
	f.Fuzz(func(t *testing.T, frames uint16, maxOrder uint8, ops []byte) {
		n := int(frames)%(8*FramesPerHugePage+FramesPerHugePage/2) + 1
		if len(ops) > 3*128 {
			ops = ops[:3*128]
		}
		driveBuddy(t, n, int(maxOrder)%(HugeOrder+4)+1, ops)
	})
}

// BenchmarkAllocHugePageFragmented times Table I's worst cell (FMFI
// 0.7-0.8, 1.1x free memory) at 1/64 scale: almost every huge page needs
// a compaction, so the per-region free-count scan dominates unless it is
// O(1) per region.
func BenchmarkAllocHugePageFragmented(b *testing.B) {
	const scale = 64
	model, total := int64(16200<<20)/scale, int64(64<<30)/scale
	var res LoadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = SimulateModelLoad(model, total, 1.1, 0.75, DefaultLoadModelConfig(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CompactedPages), "compactions/op")
}

// FreeInRegion counts free frames within [start, start+n). Every 2 MB
// region the range covers whole is read from its counter; only the
// unaligned edges are scanned frame by frame.
func (b *Buddy) FreeInRegion(start, n int) int {
	end := min(start+n, b.frames)
	c := 0
	for f := start; f < end; {
		r := f / FramesPerHugePage
		rEnd := min((r+1)*FramesPerHugePage, b.frames)
		if f == r*FramesPerHugePage && rEnd <= end {
			c += int(b.regionFree[r])
			f = rEnd
			continue
		}
		for stop := min(rEnd, end); f < stop; f++ {
			if b.frameFree[f] {
				c++
			}
		}
	}
	return c
}

// FrameFree reports whether one frame is free.
func (b *Buddy) FrameFree(f int) bool { return b.frameFree[f] }
