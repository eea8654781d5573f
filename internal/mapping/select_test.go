package mapping

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSelectMappingBasic(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	cases := []struct {
		name      string
		m         MatrixConfig
		wantID    MapID
		wantPart  bool
		wantParts int
	}{
		{"4096-col FP16", MatrixConfig{4096, 4096, 2}, 8, false, 1},
		{"1024-col FP16 (one chunk per row)", MatrixConfig{4096, 1024, 2}, 6, false, 1},
		{"512-col FP16 (sub-chunk row, clamped)", MatrixConfig{4096, 512, 2}, 6, false, 1},
		{"14336-col FP16 (padded to 16Ki)", MatrixConfig{4096, 14336, 2}, 10, false, 1},
		{"16384-col FP16 (exactly per-bank)", MatrixConfig{4096, 16384, 2}, 10, false, 1},
		{"32768-col FP16 (partitioned x2)", MatrixConfig{16, 32768, 2}, 10, true, 2},
		{"65536-col FP16 (partitioned x4)", MatrixConfig{16, 65536, 2}, 10, true, 4},
	}
	for _, c := range cases {
		sel, err := SelectMapping(c.m, mc, chunk)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if sel.ID != c.wantID || sel.Partitioned != c.wantPart || sel.PartitionsPerRow != c.wantParts {
			t.Errorf("%s: got %+v, want id=%d part=%v parts=%d",
				c.name, sel, c.wantID, c.wantPart, c.wantParts)
		}
	}
}

func TestSelectMappingRowsPerPass(t *testing.T) {
	mc := testMem() // 64 banks
	chunk := AiMChunk(mc.Geometry)
	sel, err := SelectMapping(MatrixConfig{4096, 4096, 2}, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if sel.RowsPerPass != 64 {
		t.Errorf("RowsPerPass = %d, want 64 (one row per PU)", sel.RowsPerPass)
	}
	// Partitioned rows halve the tile height.
	sel, err = SelectMapping(MatrixConfig{16, 32768, 2}, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if sel.RowsPerPass != 32 {
		t.Errorf("partitioned RowsPerPass = %d, want 32", sel.RowsPerPass)
	}
	// HBM-PIM chunks process 8 rows per PU.
	hbm := HBMPIMChunk(mc.Geometry)
	sel, err = SelectMapping(MatrixConfig{1024, 128, 2}, mc, hbm)
	if err != nil {
		t.Fatal(err)
	}
	if sel.RowsPerPass != 64*8 {
		t.Errorf("HBM-PIM RowsPerPass = %d, want 512", sel.RowsPerPass)
	}
}

func TestSelectMappingErrors(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	if _, err := SelectMapping(MatrixConfig{0, 10, 2}, mc, chunk); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := SelectMapping(MatrixConfig{10, 10, 3}, mc, chunk); err == nil {
		t.Error("3-byte dtype accepted")
	}
	bad := mc
	bad.HugePageBytes = 12345
	if _, err := SelectMapping(MatrixConfig{10, 10, 2}, bad, chunk); err == nil {
		t.Error("bad memory config accepted")
	}
}

// TestMatrixValidateOverflow requires Validate to reject every shape
// whose padded row or padded total overflows int64 — the column count
// whose padding would double past the int range included — and to
// accept the largest shapes that still fit.
func TestMatrixValidateOverflow(t *testing.T) {
	for _, c := range []struct {
		m  MatrixConfig
		ok bool
	}{
		{MatrixConfig{1, 4611686018427387905, 2}, false}, // pads to 2^63 columns
		{MatrixConfig{1, 1152921504606846977, 8}, false}, // 2^61 columns of 8 B
		{MatrixConfig{4611686018427387904, 4096, 2}, false},
		{MatrixConfig{1<<50 + 1, 4096, 2}, false},
		{MatrixConfig{math.MaxInt64, 1, 1}, true},
		{MatrixConfig{1, 1 << 62, 1}, true},
		{MatrixConfig{1, 1<<62 + 1, 1}, false},
		{MatrixConfig{1<<50 - 1, 4096, 2}, true},
	} {
		err := c.m.Validate()
		if ok := err == nil; ok != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok %v", c.m, err, c.ok)
			continue
		}
		if c.ok && c.m.PaddedBytes() <= 0 {
			t.Errorf("%+v: accepted shape pads to %d bytes", c.m, c.m.PaddedBytes())
		}
	}
}

func TestPaddedRowBytes(t *testing.T) {
	cases := []struct {
		cols, dtype, want int
	}{
		{4096, 2, 8192},
		{14336, 2, 32768}, // padded to 16 Ki elements
		{1, 2, 2},
		{1000, 2, 2048},
		{1024, 4, 4096},
	}
	for _, c := range cases {
		m := MatrixConfig{Rows: 1, Cols: c.cols, DTypeBytes: c.dtype}
		if got := m.PaddedRowBytes(); got != c.want {
			t.Errorf("PaddedRowBytes(%d cols x %dB) = %d, want %d", c.cols, c.dtype, got, c.want)
		}
	}
}

func TestMatrixBytes(t *testing.T) {
	m := MatrixConfig{Rows: 4096, Cols: 14336, DTypeBytes: 2}
	if got, want := m.PaddedBytes(), int64(4096)*32768; got != want {
		t.Errorf("PaddedBytes = %d, want %d", got, want)
	}
}

// Property: SelectMapping always returns a MapID buildable by BuildPIM, and
// the resulting mapping round-trips addresses.
func TestSelectThenBuildProperty(t *testing.T) {
	mc := testMem()
	chunk := AiMChunk(mc.Geometry)
	f := func(rowsSeed, colsSeed uint16) bool {
		m := MatrixConfig{
			Rows:       int(rowsSeed%4096) + 1,
			Cols:       int(colsSeed%40000) + 1,
			DTypeBytes: 2,
		}
		sel, err := SelectMapping(m, mc, chunk)
		if err != nil {
			return false
		}
		if sel.ID < MinMapID(mc, chunk) || sel.ID > MaxMapID(mc) {
			return false
		}
		mp, err := BuildPIM(mc, chunk, sel.ID)
		if err != nil {
			return false
		}
		pa := uint64(m.PaddedRowBytes()) % uint64(mc.Geometry.CapacityBytes())
		a, off := mp.Translate(pa)
		return mp.Inverse(a, off) == pa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
