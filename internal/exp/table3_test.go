package exp

import (
	"context"
	"testing"

	"facil/internal/soc"
)

// TestTable3MatchesPerPointMeasurement pins Table3Compute's one-replay-
// per-shape shortcut: with a small sample window, every row must equal a
// direct soc.MeasureMemSlowdown of its own (platform, layer, prefill)
// point, scaled by that point's memory-bound fraction. The direct calls
// are served from dram's replay memo, whose GEMM key holds no prefill
// length (TestGemmReplayKeyExact pins that the key determines the
// stream), so this checks the row assembly and scaling.
func TestTable3MatchesPerPointMeasurement(t *testing.T) {
	cfg := soc.LayoutSlowdownConfig{SampleBytes: 256 << 10}
	rows, err := testLab().Table3Compute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	shapes := table3Shapes()
	if want := len(shapes) * len(table3Prefills); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		sh, pf := shapes[i/len(table3Prefills)], table3Prefills[i%len(table3Prefills)]
		if r.Platform != sh.platform.Name || r.Layer != sh.layer || r.Prefill != pf {
			t.Fatalf("row %d is %s %s P%d, want %s %s P%d", i, r.Platform, r.Layer, r.Prefill, sh.platform.Name, sh.layer, pf)
		}
		op := soc.Linear{L: pf, In: sh.in, Out: sh.out, DTypeBytes: sh.dtype}
		mem, err := soc.MeasureMemSlowdown(sh.platform, op, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opS := mem * sh.platform.MemoryBoundFraction(op)
		if r.MemSlowdown != mem || r.OpSlowdown != opS {
			t.Errorf("%s %s P%d: Table3Compute (%v, %v) != per-point measurement (%v, %v)",
				r.Platform, r.Layer, pf, r.MemSlowdown, r.OpSlowdown, mem, opS)
		}
		if first := rows[i-i%len(table3Prefills)]; r.MemSlowdown != first.MemSlowdown {
			t.Errorf("%s %s: MemSlowdown P%d %v != P%d %v", r.Platform, r.Layer, pf, r.MemSlowdown, first.Prefill, first.MemSlowdown)
		}
	}
}
