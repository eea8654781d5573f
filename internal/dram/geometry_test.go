package dram

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	g := JetsonOrinLPDDR5.Geometry
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := g
	bad.Channels = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two channels accepted")
	}
	bad = g
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero rows accepted")
	}
	bad = g
	bad.TransferBytes = 4096
	if err := bad.Validate(); err == nil {
		t.Fatal("transfer > row accepted")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := JetsonOrinLPDDR5.Geometry
	if got, want := g.Channels, 16; got != want {
		t.Errorf("Channels = %d, want %d", got, want)
	}
	if got, want := g.TotalBanks(), 16*2*16; got != want {
		t.Errorf("TotalBanks = %d, want %d", got, want)
	}
	if got, want := g.ColumnsPerRow(), 64; got != want {
		t.Errorf("ColumnsPerRow = %d, want %d", got, want)
	}
	if got, want := g.CapacityBytes(), 64*GiB; got != want {
		t.Errorf("CapacityBytes = %d, want %d", got, want)
	}
	if got, want := g.AddressBits(), 36; got != want { // 64 GiB
		t.Errorf("AddressBits = %d, want %d", got, want)
	}
}

func TestGeometryBitCounts(t *testing.T) {
	g := Geometry{
		Channels: 4, RanksPerChannel: 2, BanksPerRank: 8,
		Rows: 1 << 14, RowBytes: 2048, TransferBytes: 32,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := g.ChannelBits() + g.RankBits() + g.BankBits() + g.RowBits() +
		g.ColumnBits() + g.OffsetBits()
	if sum != g.AddressBits() {
		t.Errorf("bit counts sum %d != AddressBits %d", sum, g.AddressBits())
	}
	if g.ChannelBits() != 2 || g.RankBits() != 1 || g.BankBits() != 3 {
		t.Errorf("unexpected interleave bits: ch=%d rk=%d ba=%d",
			g.ChannelBits(), g.RankBits(), g.BankBits())
	}
}

func TestAddrValidAndGlobalBank(t *testing.T) {
	g := IPhoneLPDDR5.Geometry
	a := Addr{Channel: g.Channels - 1, Rank: 1, Bank: 15, Row: g.Rows - 1, Column: 63}
	if !a.Valid(g) {
		t.Fatalf("in-range address %v reported invalid", a)
	}
	a.Row = g.Rows
	if a.Valid(g) {
		t.Fatal("out-of-range row accepted")
	}
	// GlobalBank must be a bijection over (channel, rank, bank).
	seen := map[int]bool{}
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			for ba := 0; ba < g.BanksPerRank; ba++ {
				gb := Addr{Channel: ch, Rank: rk, Bank: ba}.GlobalBank(g)
				if gb < 0 || gb >= g.TotalBanks() {
					t.Fatalf("GlobalBank %d out of range", gb)
				}
				if seen[gb] {
					t.Fatalf("GlobalBank %d repeated", gb)
				}
				seen[gb] = true
			}
		}
	}
}

func TestGlobalBankBijectionProperty(t *testing.T) {
	// Property: for any valid geometry, GlobalBank of distinct
	// (channel,rank,bank) tuples is distinct and dense.
	f := func(chBits, rkBits, baBits uint8) bool {
		g := Geometry{
			Channels:        1 << (chBits % 4),
			RanksPerChannel: 1 << (rkBits % 2),
			BanksPerRank:    1 << (baBits%3 + 2),
			Rows:            1 << 10,
			RowBytes:        2048,
			TransferBytes:   32,
		}
		seen := make([]bool, g.TotalBanks())
		for ch := 0; ch < g.Channels; ch++ {
			for rk := 0; rk < g.RanksPerChannel; rk++ {
				for ba := 0; ba < g.BanksPerRank; ba++ {
					gb := Addr{Channel: ch, Rank: rk, Bank: ba}.GlobalBank(g)
					if gb < 0 || gb >= len(seen) || seen[gb] {
						return false
					}
					seen[gb] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2Total(t *testing.T) {
	// Log2 is total (floor semantics): non-power-of-two geometry is a
	// Validate error, never a crash.
	for _, tc := range []struct{ v, want int }{
		{-4, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 20, 20},
	} {
		if got := Log2(tc.v); got != tc.want {
			t.Errorf("Log2(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestValidateWrapsErrConfig(t *testing.T) {
	g := Geometry{Channels: 3, RanksPerChannel: 2, BanksPerRank: 16, Rows: 1 << 14, RowBytes: 2048, TransferBytes: 32}
	err := g.Validate()
	if err == nil {
		t.Fatal("non-power-of-two channel count validated")
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("geometry error %v does not wrap ErrConfig", err)
	}
	if _, err := LPDDR5("bad", 16, 6400, 2, 100); !errors.Is(err, ErrConfig) {
		t.Fatalf("LPDDR5 constructor error %v does not wrap ErrConfig", err)
	}
	bad := Timing{CycleNS: -1}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatalf("timing error %v does not wrap ErrConfig", err)
	}
}
