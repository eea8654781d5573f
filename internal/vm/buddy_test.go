package vm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestBuddyAllocFreeRoundTrip(t *testing.T) {
	b, err := NewBuddy(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreeFrames() != 1024 {
		t.Fatalf("fresh allocator has %d free frames", b.FreeFrames())
	}
	s, err := b.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if b.FreeFrames() != 1024-16 {
		t.Errorf("free frames after alloc = %d", b.FreeFrames())
	}
	if s%16 != 0 {
		t.Errorf("order-4 block start %d misaligned", s)
	}
	if err := b.Free(s, 4); err != nil {
		t.Fatal(err)
	}
	if b.FreeFrames() != 1024 {
		t.Errorf("free frames after free = %d", b.FreeFrames())
	}
	// Full coalescing: 1024 frames coalesce back into one order-10
	// block (the largest the range supports).
	counts := b.FreeBlocks()
	if counts[10] != 1 {
		t.Errorf("blocks did not coalesce: %v", counts)
	}
}

func TestBuddyExhaustion(t *testing.T) {
	b, err := NewBuddy(64, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(6); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(0); err == nil {
		t.Error("allocation from empty allocator succeeded")
	}
	if _, err := b.Alloc(7); err == nil {
		t.Error("order above max accepted")
	}
}

func TestBuddyDoubleFreeRejected(t *testing.T) {
	b, _ := NewBuddy(64, 6)
	s, err := b.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(s, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(s, 2); err == nil {
		t.Error("double free accepted")
	}
	if err := b.Free(3, 2); err == nil {
		t.Error("misaligned free accepted")
	}
}

// TestBuddyNoDoubleAllocationUnderChurn is the regression test for stale
// free-list entries: random alloc/free churn must never hand out
// overlapping blocks.
func TestBuddyNoDoubleAllocationUnderChurn(t *testing.T) {
	b, err := NewBuddy(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	type block struct{ start, order int }
	var live []block
	owner := make([]int, 4096) // frame -> -1 free, else block tag
	for i := range owner {
		owner[i] = -1
	}
	for iter := 0; iter < 20000; iter++ {
		if rng.Intn(2) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			bl := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := b.Free(bl.start, bl.order); err != nil {
				t.Fatalf("iter %d: free: %v", iter, err)
			}
			for f := bl.start; f < bl.start+(1<<bl.order); f++ {
				owner[f] = -1
			}
		} else {
			order := rng.Intn(5)
			s, err := b.Alloc(order)
			if err != nil {
				continue // legitimately out of memory
			}
			for f := s; f < s+(1<<order); f++ {
				if owner[f] != -1 {
					t.Fatalf("iter %d: frame %d double-allocated", iter, f)
				}
				owner[f] = iter
			}
			live = append(live, block{s, order})
		}
	}
	// Accounting must agree with the shadow map.
	var used int64
	for _, o := range owner {
		if o != -1 {
			used++
		}
	}
	if got := int64(b.Frames()) - b.FreeFrames(); got != used {
		t.Errorf("allocator says %d used, shadow map says %d", got, used)
	}
}

func TestFMFIExtremes(t *testing.T) {
	// All free memory in 2 MB blocks: FMFI at HugeOrder == 0.
	b, _ := NewBuddy(4*FramesPerHugePage, 0)
	if got := b.FMFI(HugeOrder); got != 0 {
		t.Errorf("pristine FMFI = %g, want 0", got)
	}
	// Scatter: drain then free stride-2 singles -> FMFI == 1.
	rng := rand.New(rand.NewSource(1))
	if err := SynthesizeFragmentation(b, 256, 1.0, rng); err != nil {
		t.Fatal(err)
	}
	if got := b.FMFI(HugeOrder); got != 1 {
		t.Errorf("fully scattered FMFI = %g, want 1", got)
	}
}

func TestSynthesizeFragmentationHitsTargets(t *testing.T) {
	for _, scatter := range []float64{0.05, 0.45, 0.75} {
		b, err := NewBuddy(64*FramesPerHugePage, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		free := int64(32 * FramesPerHugePage)
		if err := SynthesizeFragmentation(b, free, scatter, rng); err != nil {
			t.Fatalf("scatter %g: %v", scatter, err)
		}
		if got := b.FreeFrames(); got != free {
			t.Errorf("scatter %g: free frames = %d, want %d", scatter, got, free)
		}
		fmfi := b.FMFI(HugeOrder)
		if fmfi < scatter-0.1 || fmfi > scatter+0.1 {
			t.Errorf("scatter %g: FMFI = %g", scatter, fmfi)
		}
	}
}

func TestSynthesizeFragmentationErrors(t *testing.T) {
	b, _ := NewBuddy(1024, 0)
	rng := rand.New(rand.NewSource(1))
	if err := SynthesizeFragmentation(b, 99999, 0.5, rng); err == nil {
		t.Error("freeFrames > frames accepted")
	}
	if err := SynthesizeFragmentation(b, 10, 1.5, rng); err == nil {
		t.Error("scatter > 1 accepted")
	}
}

func TestCompactionReclaimsHugePage(t *testing.T) {
	b, err := NewBuddy(16*FramesPerHugePage, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// All free memory scattered: direct order-9 allocation must fail.
	if err := SynthesizeFragmentation(b, 4*FramesPerHugePage, 1.0, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(HugeOrder); err == nil {
		t.Fatal("order-9 allocation succeeded on fully scattered memory")
	}
	cursor := 0
	freeBefore := b.FreeFrames()
	start, moved, err := b.AllocHugePage(&cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Errorf("compaction reported %d moved frames", moved)
	}
	if start%FramesPerHugePage != 0 {
		t.Errorf("huge page start %d misaligned", start)
	}
	// Free memory shrank by exactly one huge page (migration reshuffles
	// but does not consume).
	if got := freeBefore - b.FreeFrames(); got != FramesPerHugePage {
		t.Errorf("allocation consumed %d frames, want %d", got, FramesPerHugePage)
	}
}

func TestAllocHugePageDirectWhenUnfragmented(t *testing.T) {
	b, _ := NewBuddy(16*FramesPerHugePage, 0)
	cursor := 0
	_, moved, err := b.AllocHugePage(&cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("pristine allocator compacted %d frames", moved)
	}
}

func TestFreeInRegion(t *testing.T) {
	b, _ := NewBuddy(1024, 0)
	if got := b.FreeInRegion(0, 1024); got != 1024 {
		t.Errorf("FreeInRegion = %d, want 1024", got)
	}
	s, err := b.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.FreeInRegion(s, 8); got != 0 {
		t.Errorf("allocated region reports %d free", got)
	}
	if !b.FrameFree(1023) {
		t.Error("frame 1023 should be free")
	}
}

// buddyOps runs one op stream against Buddy and refBuddy side by side and
// fails on the first difference in a returned frame, an error or the free
// frame count, or (every 16th op and after the last) in FreeBlocks or
// FMFI. Each op is three bytes: a kind (Alloc, Free of a live block,
// AllocHugePage, Free of an arbitrary aligned range) and two arguments.
func buddyOps(t *testing.T, frames, maxOrder int, ops []byte) {
	got, gerr := NewBuddy(frames, maxOrder)
	want, werr := newRefBuddy(frames, maxOrder)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("NewBuddy(%d, %d): error %v, reference %v", frames, maxOrder, gerr, werr)
	}
	if gerr != nil {
		return
	}
	type block struct{ start, order int }
	var live []block
	var gCursor, wCursor int
	for i := 0; i+2 < len(ops); i += 3 {
		kind, a, c := ops[i]%4, int(ops[i+1]), int(ops[i+2])
		var g, w int
		var ge, we error
		switch kind {
		case 0:
			order := a % (got.maxOrder + 2)
			g, ge = got.Alloc(order)
			w, we = want.Alloc(order)
			if ge == nil && we == nil {
				live = append(live, block{g, order})
			}
		case 1:
			if len(live) == 0 {
				continue
			}
			k := a % len(live)
			bl := live[k]
			live = append(live[:k], live[k+1:]...)
			ge, we = got.Free(bl.start, bl.order), want.Free(bl.start, bl.order)
		case 2:
			var gm, wm int
			g, gm, ge = got.AllocHugePage(&gCursor, c%8)
			w, wm, we = want.AllocHugePage(&wCursor, c%8)
			if gm != wm || gCursor != wCursor {
				t.Fatalf("op %d AllocHugePage: moved %d cursor %d, reference moved %d cursor %d", i/3, gm, gCursor, wm, wCursor)
			}
			if ge == nil && we == nil {
				live = append(live, block{g, HugeOrder})
			}
		case 3:
			order := c % 5
			start := (a * frames / 256) &^ (1<<order - 1)
			ge, we = got.Free(start, order), want.Free(start, order)
		}
		if g != w || fmt.Sprint(ge) != fmt.Sprint(we) {
			t.Fatalf("op %d (kind %d): frame %d err %v, reference frame %d err %v", i/3, kind, g, ge, w, we)
		}
		if got.FreeFrames() != want.FreeFrames() {
			t.Fatalf("op %d (kind %d): %d free frames, reference %d", i/3, kind, got.FreeFrames(), want.FreeFrames())
		}
		if i%48 != 0 && i+5 < len(ops) {
			continue
		}
		if g, w := got.FreeBlocks(), want.FreeBlocks(); !slices.Equal(g, w) {
			t.Fatalf("op %d: free blocks %v, reference %v", i/3, g, w)
		}
		for _, o := range []int{0, 3, HugeOrder} {
			if gf, wf := got.FMFI(o), want.FMFI(o); gf != wf {
				t.Fatalf("op %d: FMFI(%d) %v, reference %v", i/3, o, gf, wf)
			}
		}
	}
}

// FuzzBuddyDifferential pins Buddy's stamp-free free lists (and their
// in-order compaction) to refBuddy over random Alloc, Free and
// AllocHugePage sequences.
func FuzzBuddyDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, frames := range []uint16{64, 1000, 2048, 4096 + 300} {
		ops := make([]byte, 3*1000)
		rng.Read(ops)
		f.Add(frames, uint8(0), ops)
		f.Add(frames, uint8(HugeOrder), ops)
	}
	f.Fuzz(func(t *testing.T, frames uint16, maxOrder uint8, ops []byte) {
		buddyOps(t, 1+int(frames%8192), int(maxOrder%14), ops)
	})
}
