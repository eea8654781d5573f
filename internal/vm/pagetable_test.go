package vm

import (
	"testing"

	"facil/internal/mapping"
)

func TestPageTableWalkBaseAndHuge(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapBase(0x1000, 0x8000, PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapHuge(2<<20, 8<<20, 6, PTEWrite); err != nil {
		t.Fatal(err)
	}

	tr, err := pt.Walk(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Phys != 0x8234 || tr.PageBytes != BasePageBytes || tr.MapID != mapping.ConventionalMapID {
		t.Errorf("base walk = %+v", tr)
	}

	tr, err = pt.Walk(2<<20 + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Phys != 8<<20+0x1234 || tr.PageBytes != HugePageBytes || tr.MapID != 6 {
		t.Errorf("huge walk = %+v", tr)
	}

	if _, err := pt.Walk(0x9999_0000); err == nil {
		t.Error("unmapped address walked successfully")
	}
}

func TestPageTableOverlapRejected(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapHuge(2<<20, 8<<20, 6, 0); err != nil {
		t.Fatal(err)
	}
	// A base mapping inside the huge region must be rejected.
	if err := pt.MapBase(2<<20+0x3000, 0x10000, 0); err == nil {
		t.Error("base mapping inside huge region accepted")
	}
	// And the converse.
	pt2 := NewPageTable()
	if err := pt2.MapBase(4<<20+0x3000, 0x10000, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt2.MapHuge(4<<20, 8<<20, 6, 0); err == nil {
		t.Error("huge mapping over base mappings accepted")
	}
}

func TestPageTableAlignment(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapBase(0x123, 0x8000, 0); err == nil {
		t.Error("misaligned base VA accepted")
	}
	if err := pt.MapHuge(1<<20, 8<<20, 6, 0); err == nil {
		t.Error("misaligned huge VA accepted")
	}
}

func TestPageTableUnmapAndMapped(t *testing.T) {
	pt := NewPageTable()
	mapped := func() int64 {
		return int64(len(pt.base))*BasePageBytes + int64(len(pt.huge))*HugePageBytes
	}
	if err := pt.MapHuge(2<<20, 8<<20, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapBase(0x1000, 0x8000, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := mapped(), int64(HugePageBytes+BasePageBytes); got != want {
		t.Errorf("Mapped = %d, want %d", got, want)
	}
	pt.Unmap(2<<20 + 0x5000)
	if _, err := pt.Walk(2 << 20); err == nil {
		t.Error("huge mapping survived Unmap")
	}
	pt.Unmap(0x1000)
	if mapped() != 0 {
		t.Errorf("Mapped = %d after unmapping everything", mapped())
	}
}

func TestTLBHitMissAndMapID(t *testing.T) {
	pt := NewPageTable()
	if err := pt.MapHuge(2<<20, 8<<20, 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapBase(0x1000, 0x8000, 0); err != nil {
		t.Fatal(err)
	}
	tlb, err := NewTLB(16, 4, pt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tlb.Translate(2<<20 + 42)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MapID != 7 {
		t.Errorf("TLB miss path lost MapID: %+v", tr)
	}
	if s := tlb.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats after first access: %+v", s)
	}
	// Same huge page, different offset: must hit and keep the MapID.
	tr, err = tlb.Translate(2<<20 + 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MapID != 7 || tr.Phys != 8<<20+1<<20 {
		t.Errorf("TLB hit path wrong: %+v", tr)
	}
	if s := tlb.Stats(); s.Hits != 1 {
		t.Errorf("stats after hit: %+v", s)
	}
	// Base page coexists.
	tr, err = tlb.Translate(0x1abc)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MapID != mapping.ConventionalMapID || tr.Phys != 0x8abc {
		t.Errorf("base translation wrong: %+v", tr)
	}
	if _, err := tlb.Translate(0xdead_0000); err == nil {
		t.Error("TLB translated unmapped address")
	}
	// The faulting lookup still counts as a TLB miss.
	if s := tlb.Stats(); s.Misses != 3 {
		t.Errorf("stats after fault: %+v", s)
	}
	tlb.Flush()
	if _, err := tlb.Translate(2<<20 + 42); err != nil {
		t.Fatal(err)
	}
	if s := tlb.Stats(); s.Misses != 4 {
		t.Errorf("flush did not evict: %+v", s)
	}
}

func TestTLBEviction(t *testing.T) {
	pt := NewPageTable()
	// 1-set, 2-way TLB: third distinct page evicts the LRU.
	for i := uint64(0); i < 3; i++ {
		if err := pt.MapBase(i*BasePageBytes, (i+10)*BasePageBytes, 0); err != nil {
			t.Fatal(err)
		}
	}
	tlb, err := NewTLB(1, 2, pt)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := tlb.Translate(i * BasePageBytes); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 was LRU-evicted: accessing it misses again.
	if _, err := tlb.Translate(0); err != nil {
		t.Fatal(err)
	}
	if s := tlb.Stats(); s.Misses != 4 || s.Hits != 0 {
		t.Errorf("eviction stats: %+v", s)
	}
	// Hit rate math.
	if _, err := tlb.Translate(0); err != nil {
		t.Fatal(err)
	}
	if got := tlb.Stats().HitRate(); got != 0.2 {
		t.Errorf("HitRate = %g, want 0.2", got)
	}
}

func TestNewTLBValidation(t *testing.T) {
	pt := NewPageTable()
	if _, err := NewTLB(3, 4, pt); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewTLB(4, 0, pt); err == nil {
		t.Error("zero ways accepted")
	}
}
