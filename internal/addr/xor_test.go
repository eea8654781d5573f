package addr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func hashedTestMapping(t *testing.T) *HashedMapping {
	t.Helper()
	g := testGeom()
	base, err := Conventional(g)
	if err != nil {
		t.Fatal(err)
	}
	h, err := WithXOR(base, []XORPair{
		{Target: FieldBank, TargetBit: 0, RowBit: 0},
		{Target: FieldBank, TargetBit: 1, RowBit: 1},
		{Target: FieldChannel, TargetBit: 0, RowBit: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestXORRoundTrip(t *testing.T) {
	h := hashedTestMapping(t)
	g := h.base.Geometry()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		pa := rng.Uint64() % uint64(g.CapacityBytes())
		a, off := h.Translate(pa)
		if !a.Valid(g) {
			t.Fatalf("hashed translate invalid at %#x: %v", pa, a)
		}
		if back := h.Inverse(a, off); back != pa {
			t.Fatalf("hashed round trip %#x -> %#x", pa, back)
		}
	}
}

func TestXORRoundTripProperty(t *testing.T) {
	h := hashedTestMapping(t)
	max := uint64(h.base.Geometry().CapacityBytes())
	f := func(pa uint64) bool {
		pa %= max
		a, off := h.Translate(pa)
		return h.Inverse(a, off) == pa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestXORSpreadsPathologicalStride(t *testing.T) {
	// A stride equal to one bank's row span maps every access to the
	// same bank under the plain mapping; hashing spreads them.
	g := testGeom()
	base, err := Conventional(g)
	if err != nil {
		t.Fatal(err)
	}
	h, err := WithXOR(base, []XORPair{
		{Target: FieldBank, TargetBit: 0, RowBit: 0},
		{Target: FieldBank, TargetBit: 1, RowBit: 1},
		{Target: FieldBank, TargetBit: 2, RowBit: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stride: one full row-of-banks span -> same bank, next row.
	stride := uint64(g.RowBytes * g.BanksPerRank * g.Channels * g.RanksPerChannel)
	plainBanks := map[int]bool{}
	hashedBanks := map[int]bool{}
	for i := uint64(0); i < 64; i++ {
		a, _ := base.Translate(i * stride)
		plainBanks[a.Bank] = true
		b, _ := h.Translate(i * stride)
		hashedBanks[b.Bank] = true
	}
	if len(plainBanks) != 1 {
		t.Fatalf("plain mapping hit %d banks, expected the pathological 1", len(plainBanks))
	}
	if len(hashedBanks) < 4 {
		t.Errorf("hashed mapping hit only %d banks", len(hashedBanks))
	}
}

func TestXORPreservesRowAndColumn(t *testing.T) {
	h := hashedTestMapping(t)
	base := h.base
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		pa := rng.Uint64() % uint64(h.base.Geometry().CapacityBytes())
		a, _ := base.Translate(pa)
		b, _ := h.Translate(pa)
		if a.Row != b.Row || a.Column != b.Column || a.Rank != b.Rank {
			t.Fatalf("hash modified non-target fields: %v vs %v", a, b)
		}
	}
}

func TestWithXORValidation(t *testing.T) {
	g := testGeom()
	base, err := Conventional(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := []XORPair{{Target: FieldBank, TargetBit: 99, RowBit: 0}}
	if _, err := WithXOR(base, bad); err == nil {
		t.Error("bank bit out of range accepted")
	}
	bad = []XORPair{{Target: FieldRow, TargetBit: 0, RowBit: 0}}
	if _, err := WithXOR(base, bad); err == nil {
		t.Error("row target accepted")
	}
	bad = []XORPair{{Target: FieldBank, TargetBit: 0, RowBit: 99}}
	if _, err := WithXOR(base, bad); err == nil {
		t.Error("row bit out of range accepted")
	}
}
