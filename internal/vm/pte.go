// Package vm models the virtual-memory side of FACIL: page-table entries
// carrying a MapID in otherwise-unused bits (paper Fig. 11), a page table
// and TLB, a buddy physical-page allocator with controllable external
// fragmentation (for the paper's Table I huge-page study), and the
// pimalloc allocation path (paper Fig. 7).
package vm

import (
	"fmt"

	"facil/internal/mapping"
)

// Page sizes used throughout the package.
const (
	// BasePageBits is log2 of the 4 KB base page.
	BasePageBits = 12
	// BasePageBytes is the base page size.
	BasePageBytes = 1 << BasePageBits
	// HugePageBits is log2 of the 2 MB huge page.
	HugePageBits = 21
	// HugePageBytes is the huge page size.
	HugePageBytes = 1 << HugePageBits
	// FramesPerHugePage is the number of base frames in one huge page.
	FramesPerHugePage = HugePageBytes / BasePageBytes
)

// PTE is an x86-64-style page-table entry. Layout (paper Fig. 11):
//
//	bits [0:9)   flags (present, write, huge, ...)
//	bits [12:48) physical frame number for 4 KB pages
//	bits [21:48) physical frame number for 2 MB pages
//
// For huge pages, bits [12:21) are not needed for the frame number; FACIL
// repurposes bits [12:16) to store the MapID — no extra memory, and since
// TLB entries accommodate both page sizes, the MapID travels through the
// TLB unmodified.
type PTE uint64

// PTE flag bits.
const (
	PTEPresent PTE = 1 << 0
	PTEWrite   PTE = 1 << 1
	PTEUser    PTE = 1 << 2
	PTEHuge    PTE = 1 << 7
)

const (
	pteMapIDShift   = 12
	pteMapIDBits    = 4
	pteMapIDMask    = PTE((1<<pteMapIDBits)-1) << pteMapIDShift
	pteAddrMask     = PTE(0x0000_FFFF_FFFF_F000)
	pteHugeAddrMask = PTE(0x0000_FFFF_FFE0_0000)
)

// MaxPTEMapID is the largest MapID encodable in the repurposed bits.
// The paper notes 4 bits suffice for the worst-case 14 mappings.
const MaxPTEMapID = (1 << pteMapIDBits) - 1

// NewPTE builds a present 4 KB entry for a physical address.
func NewPTE(phys uint64, flags PTE) (PTE, error) {
	if phys%BasePageBytes != 0 {
		return 0, fmt.Errorf("vm: physical address %#x not 4K-aligned", phys)
	}
	return PTE(phys)&pteAddrMask | flags | PTEPresent, nil
}

// NewHugePTE builds a present 2 MB entry carrying a MapID.
func NewHugePTE(phys uint64, id mapping.MapID, flags PTE) (PTE, error) {
	if phys%HugePageBytes != 0 {
		return 0, fmt.Errorf("vm: physical address %#x not 2M-aligned", phys)
	}
	if id < 0 || int(id) > MaxPTEMapID {
		return 0, fmt.Errorf("vm: MapID %d does not fit in %d PTE bits", id, pteMapIDBits)
	}
	e := PTE(phys)&pteHugeAddrMask | flags | PTEPresent | PTEHuge
	e |= PTE(id) << pteMapIDShift
	return e, nil
}

// Present reports whether the entry is valid.
func (p PTE) Present() bool { return p&PTEPresent != 0 }

// Huge reports whether the entry maps a 2 MB page.
func (p PTE) Huge() bool { return p&PTEHuge != 0 }

// PhysAddr returns the mapped physical base address.
func (p PTE) PhysAddr() uint64 {
	if p.Huge() {
		return uint64(p & pteHugeAddrMask)
	}
	return uint64(p & pteAddrMask)
}

// MapID extracts the FACIL mapping identifier. For 4 KB entries (whose
// low address bits are all in use) it is always the conventional mapping.
func (p PTE) MapID() mapping.MapID {
	if !p.Huge() {
		return mapping.ConventionalMapID
	}
	return mapping.MapID((p & pteMapIDMask) >> pteMapIDShift)
}

// String renders the entry for diagnostics.
func (p PTE) String() string {
	if !p.Present() {
		return "PTE(not present)"
	}
	kind := "4K"
	if p.Huge() {
		kind = "2M"
	}
	return fmt.Sprintf("PTE(%s phys=%#x mapid=%d)", kind, p.PhysAddr(), p.MapID())
}
