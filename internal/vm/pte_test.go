package vm

import (
	"strings"
	"testing"
	"testing/quick"

	"facil/internal/mapping"
)

func TestPTEBasic(t *testing.T) {
	e, err := NewPTE(0x1234_5000, PTEWrite)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Present() || e.Huge() {
		t.Errorf("4K entry flags wrong: %v", e)
	}
	if e.PhysAddr() != 0x1234_5000 {
		t.Errorf("PhysAddr = %#x", e.PhysAddr())
	}
	if e.MapID() != mapping.ConventionalMapID {
		t.Errorf("4K entry MapID = %d, want conventional", e.MapID())
	}
	if _, err := NewPTE(0x1234_5678, 0); err == nil {
		t.Error("misaligned physical address accepted")
	}
}

func TestHugePTEMapIDRoundTrip(t *testing.T) {
	for id := mapping.MapID(0); id <= MaxPTEMapID; id++ {
		e, err := NewHugePTE(0x4000_0000, id, PTEWrite)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Huge() || !e.Present() {
			t.Fatalf("huge entry flags wrong: %v", e)
		}
		if e.MapID() != id {
			t.Errorf("MapID round trip: got %d, want %d", e.MapID(), id)
		}
		if e.PhysAddr() != 0x4000_0000 {
			t.Errorf("huge PhysAddr = %#x", e.PhysAddr())
		}
	}
	if _, err := NewHugePTE(0x4000_0000, MaxPTEMapID+1, 0); err == nil {
		t.Error("oversized MapID accepted")
	}
	if _, err := NewHugePTE(0x4000_1000, 1, 0); err == nil {
		t.Error("non-2M-aligned huge page accepted")
	}
}

// TestMapIDDoesNotDisturbAddress is the paper's Fig. 11 claim: the MapID
// occupies bits a 2 MB PTE does not use, so address and flags survive any
// MapID.
func TestMapIDDoesNotDisturbAddress(t *testing.T) {
	f := func(pfn uint32, idSeed uint8) bool {
		phys := (uint64(pfn) << HugePageBits) & uint64(pteHugeAddrMask)
		id := mapping.MapID(idSeed % (MaxPTEMapID + 1))
		e, err := NewHugePTE(phys, id, PTEWrite|PTEUser)
		if err != nil {
			return false
		}
		return e.PhysAddr() == phys && e.MapID() == id &&
			e.Present() && e.Huge() && e&PTEWrite != 0 && e&PTEUser != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPTEString(t *testing.T) {
	var zero PTE
	if got := zero.String(); got != "PTE(not present)" {
		t.Errorf("zero PTE string = %q", got)
	}
	e, _ := NewHugePTE(0x4000_0000, 5, 0)
	if got := e.String(); !strings.Contains(got, "2M") || !strings.Contains(got, "mapid=5") {
		t.Errorf("huge PTE string = %q", got)
	}
}
