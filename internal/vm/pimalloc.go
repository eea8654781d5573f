package vm

import (
	"fmt"

	"facil/internal/mapping"
)

// Region is a virtually contiguous allocation returned by pimalloc or the
// conventional allocator.
type Region struct {
	// VA is the virtual base address (huge-page aligned for pimalloc).
	VA uint64
	// Bytes is the usable size requested.
	Bytes int64
	// MappedBytes is the size actually mapped (padded to page size).
	MappedBytes int64
	// MapID is the PA-to-DA mapping of every page in the region.
	MapID mapping.MapID
	// Selection records the placement decision for pimalloc regions.
	Selection mapping.Selection
	// Pages lists the physical base addresses backing the region in
	// virtual order.
	Pages []uint64
	// PageBytes is the page size used (HugePageBytes for pimalloc).
	PageBytes int
}

// AddressSpace is the OS-side allocation state of one FACIL system: a
// physical buddy allocator, a page table, and the mapping selector wiring
// of paper Fig. 7(a):
//
//  1. the user passes the matrix configuration to Pimalloc,
//  2. the mapping selector picks a MapID,
//  3. huge pages are allocated and their PTEs record {PFN, MapID},
//  4. the virtual address is returned.
type AddressSpace struct {
	mem    mapping.MemoryConfig
	chunk  mapping.ChunkConfig
	buddy  *Buddy
	pt     *PageTable
	nextVA uint64
	cursor int

	// MovedFrames accumulates compaction migration work (for load-time
	// accounting).
	MovedFrames int64
	// CompactedPages counts huge-page allocations that needed
	// compaction.
	CompactedPages int64
}

// NewAddressSpace builds an address space over the memory config. The
// buddy allocator covers the geometry's full capacity.
func NewAddressSpace(mem mapping.MemoryConfig, chunk mapping.ChunkConfig) (*AddressSpace, error) {
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	if err := chunk.Validate(mem.Geometry); err != nil {
		return nil, err
	}
	if mem.HugePageBytes != HugePageBytes {
		return nil, fmt.Errorf("vm: address space requires %d B huge pages, got %d",
			HugePageBytes, mem.HugePageBytes)
	}
	frames := mem.Geometry.CapacityBytes() / BasePageBytes
	if frames > int64(^uint32(0)>>1) {
		return nil, fmt.Errorf("vm: capacity %d too large for frame index", mem.Geometry.CapacityBytes())
	}
	b, err := NewBuddy(int(frames), 0)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{
		mem:    mem,
		chunk:  chunk,
		buddy:  b,
		pt:     NewPageTable(),
		nextVA: 1 << 30, // arbitrary non-zero mmap base
	}, nil
}

// PageTable exposes the address space's page table (for the TLB and the
// memory-controller request path).
func (as *AddressSpace) PageTable() *PageTable { return as.pt }

// reserveVA carves an aligned virtual range.
func (as *AddressSpace) reserveVA(bytes int64, align uint64) uint64 {
	va := (as.nextVA + align - 1) &^ (align - 1)
	as.nextVA = va + uint64(bytes)
	return va
}

// Pimalloc allocates a weight matrix with a PIM-optimized mapping. It
// implements the paper's pimalloc flow: select the MapID from the matrix /
// memory / PIM configurations, back the region with huge pages (compacting
// when fragmentation demands it), and record the MapID in each PTE.
func (as *AddressSpace) Pimalloc(m mapping.MatrixConfig) (*Region, error) {
	sel, err := mapping.SelectMapping(m, as.mem, as.chunk)
	if err != nil {
		return nil, err
	}
	if int(sel.ID) > MaxPTEMapID {
		return nil, fmt.Errorf("vm: MapID %d exceeds PTE capacity %d", sel.ID, MaxPTEMapID)
	}
	bytes := m.PaddedBytes()
	if capacity := as.mem.Geometry.CapacityBytes(); bytes > capacity {
		return nil, fmt.Errorf("vm: pimalloc of %d B exceeds the %d B of physical memory", bytes, capacity)
	}
	mapped := (bytes + HugePageBytes - 1) / HugePageBytes * HugePageBytes
	va := as.reserveVA(mapped, HugePageBytes)
	reg := &Region{
		VA:          va,
		Bytes:       bytes,
		MappedBytes: mapped,
		MapID:       sel.ID,
		Selection:   sel,
		PageBytes:   HugePageBytes,
	}
	for off := int64(0); off < mapped; off += HugePageBytes {
		start, moved, err := as.buddy.AllocHugePage(&as.cursor, 4096)
		if err != nil {
			as.releasePages(reg)
			return nil, fmt.Errorf("vm: pimalloc: %w", err)
		}
		if moved > 0 {
			as.CompactedPages++
			as.MovedFrames += int64(moved)
		}
		phys := uint64(start) * BasePageBytes
		if err := as.pt.MapHuge(va+uint64(off), phys, sel.ID, PTEWrite|PTEUser); err != nil {
			as.releasePages(reg)
			return nil, err
		}
		reg.Pages = append(reg.Pages, phys)
	}
	return reg, nil
}

// Alloc allocates conventionally mapped memory backed by base pages.
func (as *AddressSpace) Alloc(bytes int64) (*Region, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("vm: allocation size %d must be positive", bytes)
	}
	mapped := (bytes + BasePageBytes - 1) / BasePageBytes * BasePageBytes
	va := as.reserveVA(mapped, BasePageBytes)
	reg := &Region{
		VA:          va,
		Bytes:       bytes,
		MappedBytes: mapped,
		MapID:       mapping.ConventionalMapID,
		PageBytes:   BasePageBytes,
	}
	for off := int64(0); off < mapped; off += BasePageBytes {
		start, err := as.buddy.Alloc(0)
		if err != nil {
			as.releasePages(reg)
			return nil, err
		}
		phys := uint64(start) * BasePageBytes
		if err := as.pt.MapBase(va+uint64(off), phys, PTEWrite|PTEUser); err != nil {
			as.releasePages(reg)
			return nil, err
		}
		reg.Pages = append(reg.Pages, phys)
	}
	return reg, nil
}

// Free unmaps and releases a region.
func (as *AddressSpace) Free(reg *Region) error {
	order := 0
	if reg.PageBytes == HugePageBytes {
		order = HugeOrder
	}
	for i, phys := range reg.Pages {
		as.pt.Unmap(reg.VA + uint64(i)*uint64(reg.PageBytes))
		frame := int(phys / BasePageBytes)
		if err := as.buddy.Free(frame, order); err != nil {
			return err
		}
	}
	reg.Pages = nil
	return nil
}

// releasePages rolls back a partially built region.
func (as *AddressSpace) releasePages(reg *Region) {
	order := 0
	if reg.PageBytes == HugePageBytes {
		order = HugeOrder
	}
	for i, phys := range reg.Pages {
		as.pt.Unmap(reg.VA + uint64(i)*uint64(reg.PageBytes))
		frame := int(phys / BasePageBytes)
		_ = as.buddy.Free(frame, order)
	}
	reg.Pages = nil
}
