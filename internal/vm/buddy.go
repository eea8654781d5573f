package vm

import (
	"fmt"
)

// HugeOrder is the buddy order of a 2 MB huge page (512 x 4 KB frames).
const HugeOrder = 9

// Buddy is a binary buddy allocator over 4 KB physical frames, with the
// frame-level instrumentation needed to measure external fragmentation
// (Gorman's free-memory fragmentation index, FMFI) and to model huge-page
// compaction for the paper's Table I experiment.
type Buddy struct {
	frames   int
	maxOrder int
	// freeLists[o] holds candidate start frames of free blocks of
	// order o. Entries are lazily invalidated: an entry is valid only
	// while its generation stamp matches blockGen[start], the block is
	// free and has order o.
	freeLists [][]listEntry
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

// NewBuddy builds an allocator over `frames` 4 KB frames, all free.
// maxOrder caps block size (HugeOrder+2 by default if maxOrder <= 0).
func NewBuddy(frames, maxOrder int) (*Buddy, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("vm: buddy needs a positive frame count, got %d", frames)
	}
	if maxOrder <= 0 {
		maxOrder = HugeOrder + 2
	}
	b := &Buddy{
		frames:     frames,
		maxOrder:   maxOrder,
		freeLists:  make([][]listEntry, maxOrder+1),
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

// listEntry is a stamped free-list slot.
type listEntry struct {
	start int32
	gen   uint32
}

// insertFree registers a free block.
func (b *Buddy) insertFree(start, order int) {
	b.blockFree[start] = true
	b.blockOrder[start] = int8(order)
	b.blockGen[start]++
	b.freeLists[order] = append(b.freeLists[order], listEntry{int32(start), b.blockGen[start]})
	for f := start; f < start+(1<<order); f++ {
		b.frameFree[f] = true
	}
	b.addRegionFree(start, order, 1)
	b.freeCount += int64(1) << order
}

// removeFreeBlock unregisters a free block (the free-list entry is left to
// lazy invalidation).
func (b *Buddy) removeFreeBlock(start int) int {
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
func (b *Buddy) addRegionFree(start, order int, sign int32) {
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
func (b *Buddy) popFree(order int) int {
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
func (b *Buddy) Alloc(order int) (int, error) {
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
func (b *Buddy) Free(start, order int) error {
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
func (b *Buddy) Frames() int { return b.frames }

// FreeFrames returns the number of free 4 KB frames.
func (b *Buddy) FreeFrames() int64 { return b.freeCount }

// FreeBlocks counts valid free blocks per order.
func (b *Buddy) FreeBlocks() []int64 {
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
func (b *Buddy) FMFI(order int) float64 {
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
