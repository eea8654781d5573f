package exp

import (
	"context"
	"fmt"

	"facil/internal/soc"
)

// Table3Row is one (platform, layer, prefill) slowdown measurement.
type Table3Row struct {
	Platform string
	Layer    string
	Prefill  int
	// MemSlowdown is the raw DRAM-bandwidth degradation of the weight
	// stream on the PIM layout; OpSlowdown scales it by the op's
	// memory-bound fraction (what the paper's Table III reports).
	MemSlowdown float64
	OpSlowdown  float64
}

// table3Prefills are the prefill lengths of the paper's Table III.
var table3Prefills = []int{4, 16, 64}

// table3Shape is one (platform, layer shape) weight stream.
type table3Shape struct {
	platform soc.Platform
	layer    string
	in, out  int
	dtype    int
}

// table3Shapes enumerates the measured shapes in render order.
func table3Shapes() []table3Shape {
	var shapes []table3Shape
	for _, p := range soc.All() {
		m := PlatformModel(p)
		add := func(name string, in, out int) {
			shapes = append(shapes, table3Shape{platform: p, layer: name, in: in, out: out, dtype: m.DTypeBytes})
		}
		if m.KVDim() != m.Hidden {
			add("Q/O proj", m.Hidden, m.Hidden)
			add("K/V proj", m.Hidden, m.KVDim())
		} else {
			add("Q/K/V/O proj", m.Hidden, m.Hidden)
		}
		add("FC1", m.Hidden, m.Intermediate)
		add("FC2", m.Intermediate, m.Hidden)
	}
	return shapes
}

// Table3Compute measures the GEMM slowdown on the PIM-optimized layout
// for every platform's layer shapes at prefill lengths {4, 16, 64},
// replacing the paper's GPGPU-Sim/ONNXim experiments with the in-repo
// DRAM-contention model. The weight stream does not depend on the
// prefill length, so each (platform, layer) shape is one sweep point
// that replays its stream pair once; the prefill lengths only change
// the memory-bound fraction that scales it into OpSlowdown. Rows come
// out in (platform, layer, prefill) order.
func (l *Lab) Table3Compute(ctx context.Context, cfg soc.LayoutSlowdownConfig) ([]Table3Row, error) {
	shapes := table3Shapes()
	mems, err := sweep(ctx, l, "tab3", shapes, func(ctx context.Context, sh table3Shape) (float64, error) {
		op := soc.Linear{L: table3Prefills[0], In: sh.in, Out: sh.out, DTypeBytes: sh.dtype}
		mem, err := soc.MeasureMemSlowdown(sh.platform, op, cfg)
		if err != nil {
			return 0, fmt.Errorf("exp: table3 %s %s: %w", sh.platform.Name, sh.layer, err)
		}
		return mem, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(shapes)*len(table3Prefills))
	for i, sh := range shapes {
		for _, pf := range table3Prefills {
			op := soc.Linear{L: pf, In: sh.in, Out: sh.out, DTypeBytes: sh.dtype}
			rows = append(rows, Table3Row{
				Platform:    sh.platform.Name,
				Layer:       sh.layer,
				Prefill:     pf,
				MemSlowdown: mems[i],
				OpSlowdown:  mems[i] * sh.platform.MemoryBoundFraction(op),
			})
		}
	}
	return rows, nil
}

// Table3 renders the slowdown grid.
func (l *Lab) Table3(ctx context.Context, cfg soc.LayoutSlowdownConfig) (Table, error) {
	rows, err := l.Table3Compute(ctx, cfg)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:     "tab3",
		Title:  "Table III: GEMM slowdown on PIM-optimized layout",
		Header: []string{"platform", "layer", "P4", "P16", "P64"},
		Notes: []string{
			"paper worst cases: Jetson 2.1%, MacBook 0.1%, IdeaPad 1.1%, iPhone 1.6%",
			"substitution: DRAM-contention stream model replaces GPGPU-Sim/ONNXim",
		},
	}
	// Rows come in (platform, layer, prefill) order: one table row per
	// run of len(table3Prefills).
	for i := 0; i < len(rows); i += len(table3Prefills) {
		row := []string{rows[i].Platform, rows[i].Layer}
		for _, r := range rows[i : i+len(table3Prefills)] {
			row = append(row, pc(r.OpSlowdown))
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab, nil
}
