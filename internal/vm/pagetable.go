package vm

import (
	"fmt"

	"facil/internal/mapping"
)

// Translation is the result of a page-table walk: everything the memory
// controller needs, matching paper Fig. 7(b)/(c) where "both pieces of
// information [physical address and MapID] are passed to the memory
// controller".
type Translation struct {
	Phys      uint64
	MapID     mapping.MapID
	PageBytes int
}

// PageTable maps virtual pages to PTEs. It supports mixed 4 KB and 2 MB
// entries; a virtual huge-page region is either mapped by one huge entry
// or by base entries, never both.
type PageTable struct {
	base map[uint64]PTE // keyed by VA >> BasePageBits
	huge map[uint64]PTE // keyed by VA >> HugePageBits
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable {
	return &PageTable{
		base: make(map[uint64]PTE),
		huge: make(map[uint64]PTE),
	}
}

// MapBase installs a 4 KB mapping at va.
func (pt *PageTable) MapBase(va, phys uint64, flags PTE) error {
	if va%BasePageBytes != 0 {
		return fmt.Errorf("vm: virtual address %#x not 4K-aligned", va)
	}
	if _, ok := pt.huge[va>>HugePageBits]; ok {
		return fmt.Errorf("vm: %#x already covered by a huge mapping", va)
	}
	e, err := NewPTE(phys, flags)
	if err != nil {
		return err
	}
	pt.base[va>>BasePageBits] = e
	return nil
}

// MapHuge installs a 2 MB mapping at va with a MapID.
func (pt *PageTable) MapHuge(va, phys uint64, id mapping.MapID, flags PTE) error {
	if va%HugePageBytes != 0 {
		return fmt.Errorf("vm: virtual address %#x not 2M-aligned", va)
	}
	for off := uint64(0); off < HugePageBytes; off += BasePageBytes {
		if _, ok := pt.base[(va+off)>>BasePageBits]; ok {
			return fmt.Errorf("vm: %#x already covered by base mappings", va)
		}
	}
	e, err := NewHugePTE(phys, id, flags)
	if err != nil {
		return err
	}
	pt.huge[va>>HugePageBits] = e
	return nil
}

// Unmap removes the mapping covering va (base or huge).
func (pt *PageTable) Unmap(va uint64) {
	if _, ok := pt.huge[va>>HugePageBits]; ok {
		delete(pt.huge, va>>HugePageBits)
		return
	}
	delete(pt.base, va>>BasePageBits)
}

// Walk translates a virtual address. It returns the physical address of
// the byte, the MapID governing the page and the page size.
func (pt *PageTable) Walk(va uint64) (Translation, error) {
	if e, ok := pt.huge[va>>HugePageBits]; ok && e.Present() {
		return Translation{
			Phys:      e.PhysAddr() | (va & (HugePageBytes - 1)),
			MapID:     e.MapID(),
			PageBytes: HugePageBytes,
		}, nil
	}
	if e, ok := pt.base[va>>BasePageBits]; ok && e.Present() {
		return Translation{
			Phys:      e.PhysAddr() | (va & (BasePageBytes - 1)),
			MapID:     mapping.ConventionalMapID,
			PageBytes: BasePageBytes,
		}, nil
	}
	return Translation{}, fmt.Errorf("vm: page fault at %#x", va)
}
