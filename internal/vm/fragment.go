package vm

import (
	"fmt"
	"math/rand"
)

// SynthesizeFragmentation drives a fresh (fully free) buddy allocator into
// a state with `freeFrames` frames free and a free-memory fragmentation
// index at HugeOrder approximately equal to `scatter`.
//
// The technique: allocate every frame, then release memory back in two
// patterns — whole 2 MB-aligned chunks (usable for huge pages, FMFI
// contribution 0) and stride-2 single frames (never coalescing past order
// 0, FMFI contribution 1). The scattered fraction of the freed memory
// therefore directly sets the fragmentation index, mirroring how file
// cache and slab churn fragment real systems.
func SynthesizeFragmentation(b *Buddy, freeFrames int64, scatter float64, rng *rand.Rand) error {
	if freeFrames < 0 || freeFrames > int64(b.Frames()) {
		return fmt.Errorf("vm: freeFrames %d out of range [0, %d]", freeFrames, b.Frames())
	}
	if scatter < 0 || scatter > 1 {
		return fmt.Errorf("vm: scatter %g out of range [0,1]", scatter)
	}
	// Drain the allocator completely.
	for b.FreeFrames() > 0 {
		o := b.maxOrder
		for o > 0 {
			if _, err := b.Alloc(o); err == nil {
				break
			}
			o--
		}
		if o == 0 {
			if _, err := b.Alloc(0); err != nil {
				return fmt.Errorf("vm: drain failed: %w", err)
			}
		}
	}

	scatterFrames := int64(float64(freeFrames)*scatter + 0.5)
	chunkFrames := freeFrames - scatterFrames
	fullChunks := int(chunkFrames / FramesPerHugePage)
	remainder := int(chunkFrames % FramesPerHugePage)
	chunkRegions := fullChunks
	if remainder > 0 {
		chunkRegions++
	}

	// Scattered frees occupy the top of memory as a run/gap pattern:
	// runs of free frames separated by at least one used frame. Runs
	// stay below 512 frames, so they can never coalesce into an
	// order-9 (huge-page) block — each freed frame counts fully toward
	// the fragmentation index. The run length adapts to the free
	// density so that even nearly-full-free memories can be driven to
	// high FMFI.
	zoneTop := int64(b.Frames())
	// The bottom chunkRegions huge-page regions are reserved for the
	// chunked frees.
	zoneBottom := int64(chunkRegions) * FramesPerHugePage
	zone := zoneTop - zoneBottom
	pos := zoneTop - 1
	if scatterFrames > 0 {
		if zone <= scatterFrames {
			return fmt.Errorf("vm: no room to scatter %d frames in a %d-frame zone", scatterFrames, zone)
		}
		// Pick run/gap lengths so the pattern provably fits:
		// ceil(scatterFrames/runLen) gaps of gapLen used frames must
		// fit in the zone's zone-scatterFrames non-freed frames.
		runLen, gapLen := int64(1), int64(1)
		spare := zone - scatterFrames
		if spare >= scatterFrames {
			// Low density: single-frame runs, floor-divided gaps.
			gapLen = spare / scatterFrames
		} else {
			// High density: minimal runs separated by single gaps.
			runLen = (scatterFrames + spare - 1) / spare
			if runLen > 256 {
				runLen = 256
			}
		}
		for scatterFrames > 0 && pos >= zoneBottom {
			n := runLen
			if n > scatterFrames {
				n = scatterFrames
			}
			for i := int64(0); i < n && pos >= zoneBottom; i++ {
				if err := b.Free(int(pos), 0); err != nil {
					return err
				}
				scatterFrames--
				pos--
			}
			pos -= gapLen
		}
		if scatterFrames > 0 {
			return fmt.Errorf("vm: ran out of frames for scattered frees")
		}
	}

	// Chunked frees: random 2 MB-aligned regions from the reserved
	// bottom zone. A final partial chunk is released as smaller aligned
	// blocks inside one extra region so the requested free-frame count
	// is met exactly.
	regions := int(zoneBottom / FramesPerHugePage)
	if regions < chunkRegions {
		return fmt.Errorf("vm: no room for chunked frees (%d regions, need %d)", regions, chunkRegions)
	}
	if zoneBottom > zoneTop {
		return fmt.Errorf("vm: chunk zone (%d frames) exceeds memory (%d)", zoneBottom, zoneTop)
	}
	perm := rng.Perm(regions)
	for i := 0; i < fullChunks; i++ {
		if err := b.Free(perm[i]*FramesPerHugePage, HugeOrder); err != nil {
			return err
		}
	}
	if remainder > 0 {
		base := perm[fullChunks] * FramesPerHugePage
		off := 0
		for order := HugeOrder - 1; order >= 0; order-- {
			if remainder&(1<<order) != 0 {
				if err := b.Free(base+off, order); err != nil {
					return err
				}
				off += 1 << order
			}
		}
	}
	return nil
}

// CompactResult reports one huge-page compaction.
type CompactResult struct {
	// Start is the frame index of the reclaimed 2 MB region.
	Start int
	// MovedFrames is how many in-use frames were migrated out.
	MovedFrames int
}

// CompactHugePage models kernel memory compaction: it selects the 2 MB-
// aligned region with the most free frames within a bounded scan, migrates
// the region's remaining used frames into free frames elsewhere, and
// returns the region as a free order-9 block. Callers invoke it after an
// order-9 allocation fails.
//
// scanWindow bounds how many regions are examined (0 means all); the scan
// rotates via `cursor`, which callers thread between invocations to avoid
// rescanning reclaimed regions.
func (b *Buddy) CompactHugePage(cursor *int, scanWindow int) (CompactResult, error) {
	regions := b.Frames() / FramesPerHugePage
	if regions == 0 {
		return CompactResult{}, fmt.Errorf("vm: memory smaller than one huge page")
	}
	if scanWindow <= 0 || scanWindow > regions {
		scanWindow = regions
	}
	best, bestFree := -1, 0
	for i := 0; i < scanWindow; i++ {
		r := (*cursor + i) % regions
		free := int(b.regionFree[r])
		if free == FramesPerHugePage {
			// Fully free region inside a larger free block; the
			// caller's Alloc would have succeeded. Skip.
			continue
		}
		if free > bestFree {
			best, bestFree = r, free
		}
	}
	if best < 0 {
		return CompactResult{}, fmt.Errorf("vm: compaction found no region with free frames")
	}
	*cursor = (best + 1) % regions
	start := best * FramesPerHugePage
	moved := FramesPerHugePage - bestFree
	if int64(moved) > b.FreeFrames()-int64(bestFree) {
		return CompactResult{}, fmt.Errorf("vm: not enough free memory to migrate %d frames", moved)
	}

	// Extract the region's free sub-blocks. Since no free block of
	// order >= HugeOrder exists when compaction runs, every free block
	// with a start inside the region lies entirely inside it.
	for f := start; f < start+FramesPerHugePage; f++ {
		if b.blockFree[f] {
			b.removeFreeBlock(f)
		}
	}
	// Migrate used frames to free frames elsewhere.
	for i := 0; i < moved; i++ {
		if _, err := b.Alloc(0); err != nil {
			return CompactResult{}, fmt.Errorf("vm: migration target allocation failed: %w", err)
		}
	}
	// The region is now wholly reclaimable.
	if err := b.Free(start, HugeOrder); err != nil {
		return CompactResult{}, err
	}
	return CompactResult{Start: start, MovedFrames: moved}, nil
}

// AllocHugePage allocates one 2 MB page, compacting if necessary. It
// returns the start frame and the number of frames migrated (0 when the
// buddy allocator could satisfy the request directly).
func (b *Buddy) AllocHugePage(cursor *int, scanWindow int) (start, moved int, err error) {
	if s, err := b.Alloc(HugeOrder); err == nil {
		return s, 0, nil
	}
	res, err := b.CompactHugePage(cursor, scanWindow)
	if err != nil {
		return 0, 0, err
	}
	s, err := b.Alloc(HugeOrder)
	if err != nil {
		return 0, 0, fmt.Errorf("vm: allocation failed after compaction: %w", err)
	}
	return s, res.MovedFrames, nil
}
