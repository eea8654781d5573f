package vm

import "fmt"

// refBuddy is Buddy with a generation stamp on every free-list entry, which
// lazily invalidates entries whose block was removed or reinserted: the
// oracle for FuzzBuddyDifferential.
type refBuddy struct {
	frames   int
	maxOrder int
	// freeLists[o] holds candidate start frames of free blocks of
	// order o. Entries are lazily invalidated: an entry is valid only
	// while its generation stamp matches blockGen[start], the block is
	// free and has order o.
	freeLists [][]refListEntry
	// blockOrder[s] is the order of the free block starting at s
	// (meaningful only when blockFree[s]).
	blockOrder []int8
	// blockFree[s] marks s as the start of a free block.
	blockFree []bool
	// blockGen[s] increments on every insertFree(s, .), invalidating
	// stale free-list entries for s.
	blockGen []uint32
	// frameFree marks each frame free or used (for double-free checks
	// and unaligned region scans).
	frameFree []bool
	// regionFree[r] counts the free frames of 2 MB region r; the last
	// entry covers a partial tail region when frames is not a multiple
	// of FramesPerHugePage. insertFree and removeFreeBlock keep it
	// current, so a region's free count costs O(1) instead of a
	// 512-frame scan.
	regionFree []int32
	freeCount  int64 // free frames
}

// newRefBuddy builds an allocator over `frames` 4 KB frames, all free.
// maxOrder caps block size (HugeOrder+2 by default if maxOrder <= 0).
func newRefBuddy(frames, maxOrder int) (*refBuddy, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("vm: buddy needs a positive frame count, got %d", frames)
	}
	if maxOrder <= 0 {
		maxOrder = HugeOrder + 2
	}
	b := &refBuddy{
		frames:     frames,
		maxOrder:   maxOrder,
		freeLists:  make([][]refListEntry, maxOrder+1),
		blockOrder: make([]int8, frames),
		blockFree:  make([]bool, frames),
		blockGen:   make([]uint32, frames),
		frameFree:  make([]bool, frames),
		regionFree: make([]int32, (frames+FramesPerHugePage-1)/FramesPerHugePage),
	}
	// Carve the range into maximal aligned free blocks.
	pos := 0
	for pos < frames {
		o := maxOrder
		for o > 0 && (pos&((1<<o)-1) != 0 || pos+(1<<o) > frames) {
			o--
		}
		b.insertFree(pos, o)
		pos += 1 << o
	}
	return b, nil
}

// refListEntry is a stamped free-list slot.
type refListEntry struct {
	start int32
	gen   uint32
}

// insertFree registers a free block.
func (b *refBuddy) insertFree(start, order int) {
	b.blockFree[start] = true
	b.blockOrder[start] = int8(order)
	b.blockGen[start]++
	b.freeLists[order] = append(b.freeLists[order], refListEntry{int32(start), b.blockGen[start]})
	for f := start; f < start+(1<<order); f++ {
		b.frameFree[f] = true
	}
	b.addRegionFree(start, order, 1)
	b.freeCount += int64(1) << order
}

// removeFreeBlock unregisters a free block (the free-list entry is left to
// lazy invalidation).
func (b *refBuddy) removeFreeBlock(start int) int {
	order := int(b.blockOrder[start])
	b.blockFree[start] = false
	for f := start; f < start+(1<<order); f++ {
		b.frameFree[f] = false
	}
	b.addRegionFree(start, order, -1)
	b.freeCount -= int64(1) << order
	return order
}

// addRegionFree adds sign x the size of block (start, order) to the
// region counters. A block below HugeOrder lies inside one region; an
// aligned block of HugeOrder or above covers whole regions (blocks never
// extend past the last frame, so it never touches the partial tail).
func (b *refBuddy) addRegionFree(start, order int, sign int32) {
	if order < HugeOrder {
		b.regionFree[start/FramesPerHugePage] += sign << order
		return
	}
	first := start / FramesPerHugePage
	for r := first; r < first+1<<(order-HugeOrder); r++ {
		b.regionFree[r] += sign * FramesPerHugePage
	}
}

// popFree returns a valid free block of exactly `order`, or -1.
func (b *refBuddy) popFree(order int) int {
	list := b.freeLists[order]
	for len(list) > 0 {
		e := list[len(list)-1]
		list = list[:len(list)-1]
		s := int(e.start)
		if b.blockFree[s] && int(b.blockOrder[s]) == order && b.blockGen[s] == e.gen {
			b.freeLists[order] = list
			return s
		}
	}
	b.freeLists[order] = list
	return -1
}

// Alloc allocates a block of 2^order frames and returns its start frame.
func (b *refBuddy) Alloc(order int) (int, error) {
	if order < 0 || order > b.maxOrder {
		return 0, fmt.Errorf("vm: order %d out of range [0,%d]", order, b.maxOrder)
	}
	for o := order; o <= b.maxOrder; o++ {
		s := b.popFree(o)
		if s < 0 {
			continue
		}
		b.removeFreeBlock(s)
		// Split back down, freeing the upper halves.
		for cur := o; cur > order; cur-- {
			b.insertFree(s+(1<<(cur-1)), cur-1)
		}
		return s, nil
	}
	return 0, fmt.Errorf("vm: out of memory at order %d (%d frames free)", order, b.freeCount)
}

// Free releases a block previously allocated (or a sub-block of one; the
// model permits freeing arbitrary aligned ranges, which the fragmentation
// synthesizer uses). Buddies coalesce eagerly.
func (b *refBuddy) Free(start, order int) error {
	if order < 0 || order > b.maxOrder {
		return fmt.Errorf("vm: order %d out of range", order)
	}
	if start < 0 || start+(1<<order) > b.frames || start&((1<<order)-1) != 0 {
		return fmt.Errorf("vm: block (%d, order %d) out of range or misaligned", start, order)
	}
	for f := start; f < start+(1<<order); f++ {
		if b.frameFree[f] {
			return fmt.Errorf("vm: double free of frame %d", f)
		}
	}
	for order < b.maxOrder {
		buddy := start ^ (1 << order)
		if buddy+(1<<order) > b.frames || !b.blockFree[buddy] || int(b.blockOrder[buddy]) != order {
			break
		}
		b.removeFreeBlock(buddy)
		if buddy < start {
			start = buddy
		}
		order++
	}
	b.insertFree(start, order)
	return nil
}

// Frames returns the total frame count.
func (b *refBuddy) Frames() int { return b.frames }

// FreeFrames returns the number of free 4 KB frames.
func (b *refBuddy) FreeFrames() int64 { return b.freeCount }

// FreeBlocks counts valid free blocks per order.
func (b *refBuddy) FreeBlocks() []int64 {
	counts := make([]int64, b.maxOrder+1)
	for s := 0; s < b.frames; s++ {
		if b.blockFree[s] {
			counts[b.blockOrder[s]]++
		}
	}
	return counts
}

// FMFI computes Gorman's free-memory fragmentation index at `order`:
//
//	FMFI_j = (TotalFree - sum_{i >= j} 2^i * k_i) / TotalFree
//
// where k_i is the number of free blocks of order i. 0 means all free
// memory is usable for order-j allocations; values near 1 mean free
// memory exists only in fragments smaller than 2^j frames.
func (b *refBuddy) FMFI(order int) float64 {
	if b.freeCount == 0 {
		return 0
	}
	counts := b.FreeBlocks()
	var usable int64
	for i := order; i <= b.maxOrder; i++ {
		usable += counts[i] << i
	}
	return float64(b.freeCount-usable) / float64(b.freeCount)
}

// CompactHugePage is Buddy.CompactHugePage over refBuddy.
func (b *refBuddy) CompactHugePage(cursor *int, scanWindow int) (CompactResult, error) {
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
func (b *refBuddy) AllocHugePage(cursor *int, scanWindow int) (start, moved int, err error) {
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
