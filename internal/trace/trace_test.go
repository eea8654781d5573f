package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"facil/internal/addr"
	"facil/internal/dram"
)

func TestParseRoundTrip(t *testing.T) {
	in := []Entry{
		{Arrival: 0, Write: false, Phys: 0x1000},
		{Arrival: 5, Write: true, Phys: 0xdeadbe0},
		{Arrival: 9, Write: false, Phys: 0},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d entries", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestParseCommentsAndErrors(t *testing.T) {
	good := "# header\n\n0 R 0x40\n10 W 0x80\n"
	entries, err := Parse(strings.NewReader(good))
	if err != nil || len(entries) != 2 {
		t.Fatalf("parse: %v, %d entries", err, len(entries))
	}
	for _, bad := range []string{
		"x R 0x40\n",
		"0 Q 0x40\n",
		"0 R zz\n",
		"0 R\n",
		"-1 R 0x40\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("bad line %q accepted", bad)
		}
	}
}

func TestToRequestsWrapsAndMaps(t *testing.T) {
	g := dram.Geometry{
		Channels: 2, RanksPerChannel: 1, BanksPerRank: 4,
		Rows: 128, RowBytes: 2048, TransferBytes: 32,
	}
	m, err := addr.Conventional(g)
	if err != nil {
		t.Fatal(err)
	}
	cap := uint64(g.CapacityBytes())
	entries := []Entry{
		{Phys: 0},
		{Phys: cap + 32}, // wraps to 32
		{Phys: 32},
	}
	reqs := ToRequests(entries, m)
	if reqs[1].Addr != reqs[2].Addr {
		t.Errorf("wrap failed: %v vs %v", reqs[1].Addr, reqs[2].Addr)
	}
	if !reqs[0].Addr.Valid(g) {
		t.Errorf("invalid mapped address %v", reqs[0].Addr)
	}
}

func TestGenerators(t *testing.T) {
	seq := Sequential(1024, 32, false)
	if len(seq) != 32 {
		t.Fatalf("sequential length %d", len(seq))
	}
	for i, e := range seq {
		if e.Phys != uint64(i*32) || e.Write {
			t.Fatalf("sequential entry %d = %+v", i, e)
		}
	}
	rnd := Random(100, 1<<20, 32, 0.25, 0.5, 7)
	if len(rnd) != 100 {
		t.Fatalf("random length %d", len(rnd))
	}
	writes := 0
	for i, e := range rnd {
		if e.Phys%32 != 0 || e.Phys >= 1<<20 {
			t.Fatalf("random entry %d out of range: %+v", i, e)
		}
		if e.Write {
			writes++
		}
	}
	if writes == 0 || writes == 100 {
		t.Errorf("write fraction degenerate: %d/100", writes)
	}
	// Arrival pacing at 0.5 req/cycle: last arrival ~ 198.
	if last := rnd[99].Arrival; last < 150 || last > 250 {
		t.Errorf("last arrival %d, want ~198", last)
	}
	st := Strided(10, 4096, 32)
	if st[9].Phys != 9*4096 {
		t.Errorf("strided entry = %+v", st[9])
	}
}

func TestTraceThroughSimulator(t *testing.T) {
	spec, err := dram.LPDDR5("trace sim", 16, 6400, 2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := addr.Conventional(spec.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	entries := Sequential(256<<10, spec.Geometry.TransferBytes, false)
	res, err := dram.MeasureStreamFunc(spec, dram.SliceSource(ToRequests(entries, m)))
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthGBs < 0.8*spec.PeakBandwidthGBs() {
		t.Errorf("sequential trace bandwidth %.1f GB/s", res.BandwidthGBs)
	}
}

// Write emits entries in the text format.
func Write(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		op := "R"
		if e.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d %s 0x%x\n", e.Arrival, op, e.Phys); err != nil {
			return err
		}
	}
	return bw.Flush()
}
