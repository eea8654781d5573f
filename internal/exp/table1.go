package exp

import (
	"context"
	"fmt"

	"facil/internal/vm"
)

// Table1Cell is one cell of the huge-page load-time study.
type Table1Cell struct {
	FMFILow, FMFIHigh float64
	FreeRel           float64
	Result            vm.LoadResult
}

// The paper's Table I testbed loads the 16.2 GB Llama3-8B checkpoint on
// a 64 GB Jetson.
const (
	table1ModelBytes = 16200 << 20
	table1TotalBytes = 64 << 30
)

// Table1Config scales the simulation. Scale divides the testbed's model
// and memory sizes (the normalized load times are scale-free, and
// absolute times are scaled back up linearly when rendering); Seed
// drives the fragmentation synthesis.
type Table1Config struct {
	Scale int64
	Seed  int64
}

// DefaultTable1Config matches the paper at 1/8 scale for tractable runs.
func DefaultTable1Config() Table1Config {
	return Table1Config{Scale: 8, Seed: 1}
}

// Table1FMFIBands and Table1FreeRels are the paper's grid.
var (
	Table1FMFIBands = [][2]float64{{0.0, 0.1}, {0.4, 0.5}, {0.7, 0.8}}
	Table1FreeRels  = []float64{2.5, 2.0, 1.5, 1.1}
)

// table1Point is one (FMFI band, free-memory ratio) grid cell.
type table1Point struct {
	band [2]float64
	rel  float64
}

// Table1Compute runs the grid of Table I. Each cell simulates an
// independent model load (own seed-derived PRNG), so cells fan out over
// the lab's worker pool and reduce in grid order.
func (l *Lab) Table1Compute(ctx context.Context, cfg Table1Config) ([]Table1Cell, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	model := table1ModelBytes / cfg.Scale
	total := table1TotalBytes / cfg.Scale
	var points []table1Point
	for _, band := range Table1FMFIBands {
		for _, rel := range Table1FreeRels {
			points = append(points, table1Point{band: band, rel: rel})
		}
	}
	return sweep(ctx, l, "tab1", points, func(ctx context.Context, pt table1Point) (Table1Cell, error) {
		scatter := (pt.band[0] + pt.band[1]) / 2
		res, err := vm.SimulateModelLoad(model, total, pt.rel, scatter, cfg.Seed)
		if err != nil {
			return Table1Cell{}, fmt.Errorf("exp: table1 FMFI %.1f-%.1f x%.1f: %w",
				pt.band[0], pt.band[1], pt.rel, err)
		}
		// Scale absolute times back to the paper's model size.
		res.Seconds *= float64(cfg.Scale)
		res.BaselineSeconds *= float64(cfg.Scale)
		return Table1Cell{
			FMFILow: pt.band[0], FMFIHigh: pt.band[1],
			FreeRel: pt.rel,
			Result:  res,
		}, nil
	})
}

// Table1 renders the grid in the paper's layout: rows are FMFI bands,
// columns are free-memory ratios, cells are "load time (normalized)".
func (l *Lab) Table1(ctx context.Context, cfg Table1Config) (Table, error) {
	cells, err := l.Table1Compute(ctx, cfg)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:     "tab1",
		Title:  "Table I: LLM weight load time with huge pages under fragmentation",
		Header: []string{"FMFI \\ free mem"},
	}
	for _, rel := range Table1FreeRels {
		tab.Header = append(tab.Header, fmt.Sprintf("%.1fx", rel))
	}
	i := 0
	for _, band := range Table1FMFIBands {
		row := []string{fmt.Sprintf("%.1f-%.1f", band[0], band[1])}
		for range Table1FreeRels {
			c := cells[i]
			row = append(row, fmt.Sprintf("%.2fs (%.2fx)", c.Result.Seconds, c.Result.Normalized))
			i++
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("simulated at 1/%d scale; absolute times scaled back up; paper worst case: 16.72s (1.90x)", cfg.Scale),
		"substitution: buddy-allocator + compaction model replaces the paper's Jetson+NVMe measurement")
	return tab, nil
}
