package vm

import (
	"math/rand"
	"testing"

	"facil/internal/mapping"
)

func TestFMFIAcrossOrders(t *testing.T) {
	// Free memory held as order-5 blocks: usable at order <= 5,
	// fragmented at order > 5.
	b, err := NewBuddy(4*FramesPerHugePage, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := SynthesizeFragmentation(b, 0, 0, rng); err != nil {
		t.Fatal(err)
	}
	for start := 0; start < 16*32; start += 64 {
		if err := b.Free(start, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.FMFI(5); got != 0 {
		t.Errorf("FMFI(5) = %g, want 0", got)
	}
	if got := b.FMFI(HugeOrder); got != 1 {
		t.Errorf("FMFI(9) = %g, want 1 (all blocks below order 9)", got)
	}
}

func TestCompactionScanWindowBoundsWork(t *testing.T) {
	// A tiny scan window still reclaims a page, just possibly a worse
	// one (more frames moved).
	mk := func() *Buddy {
		b, err := NewBuddy(32*FramesPerHugePage, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		if err := SynthesizeFragmentation(b, 8*FramesPerHugePage, 1.0, rng); err != nil {
			t.Fatal(err)
		}
		return b
	}
	bSmall, bBig := mk(), mk()
	cs, cb := 0, 0
	_, movedSmall, err := bSmall.AllocHugePage(&cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, movedBig, err := bBig.AllocHugePage(&cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if movedSmall < movedBig {
		t.Errorf("narrow scan moved %d frames, full scan %d — full scan should pick the best region",
			movedSmall, movedBig)
	}
}

func TestAddressSpaceCompactionCountersAccumulate(t *testing.T) {
	as := testAddressSpace(t)
	// Fragment the buddy underneath the address space, then pimalloc.
	b := as.buddy
	// Consume most free memory as singles to force compaction.
	total := b.FreeFrames()
	for i := int64(0); i < total-3*FramesPerHugePage; i++ {
		if _, err := b.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := as.Pimalloc(mapping.MatrixConfig{Rows: 512, Cols: 1024, DTypeBytes: 2}); err != nil {
		t.Fatal(err)
	}
	// Whether compaction triggered depends on interleaving; the counters
	// must at least be consistent.
	if as.CompactedPages < 0 || as.MovedFrames < 0 {
		t.Errorf("counters negative: %d, %d", as.CompactedPages, as.MovedFrames)
	}
	if as.CompactedPages == 0 && as.MovedFrames != 0 {
		t.Errorf("moved frames without compacted pages")
	}
}
