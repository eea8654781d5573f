package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"facil/internal/soc"
)

func TestCoschedExperiment(t *testing.T) {
	tab, err := Cosched()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(tab.Rows))
	}
	// The dual-row-buffer row must show a PIM slowdown of 1.00x.
	var dual []string
	for _, r := range tab.Rows {
		if strings.Contains(r[0], "dual row buffer") {
			dual = r
		}
	}
	if dual == nil {
		t.Fatal("dual-row-buffer row missing")
	}
	if !strings.HasPrefix(dual[1], "1.0") {
		t.Errorf("dual row buffer PIM slowdown = %s, want ~1.00x", dual[1])
	}
}

func TestQuantExperiment(t *testing.T) {
	tab, err := Quant()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Speedups at both precisions stay in the paper band.
	for _, r := range tab.Rows {
		sp, err := strconv.ParseFloat(strings.TrimSuffix(r[len(r)-1], "x"), 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", r[len(r)-1])
		}
		if sp < 1.5 || sp > 4 {
			t.Errorf("%s: speedup %.2f out of band", r[0], sp)
		}
	}
}

func TestPIMStyleExperiment(t *testing.T) {
	tab, err := PIMStyle()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][0], "AiM") || !strings.Contains(tab.Rows[1][0], "HBM-PIM") {
		t.Errorf("style rows = %v", tab.Rows)
	}
}

func TestEnergyExperiment(t *testing.T) {
	l := testLab()
	tab, err := l.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The note must report PIM using less energy (ratio > 1).
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "less DRAM energy") {
		t.Errorf("notes = %v", tab.Notes)
	}
}

func TestServingExperiment(t *testing.T) {
	l := testLab()
	tab, err := l.Serving(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 3 rates x 4 designs.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
}

// ablation runs the study with the given id on its own.
func ablation(t *testing.T, l *Lab, id string) (Table, error) {
	t.Helper()
	for _, s := range studies {
		if s.id == id {
			return s.run(context.Background(), l)
		}
	}
	t.Fatalf("no ablation study %q", id)
	return Table{}, nil
}

func TestAblationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ablation sweeps in -short mode")
	}
	l := testLab()
	if tab, err := ablation(t, l, "offload-threshold"); err != nil || len(tab.Rows) != len(soc.All()) {
		t.Errorf("dynamic threshold ablation: %v, %d rows", err, len(tab.Rows))
	}
	if tab, err := ablation(t, l, "scheduler-window"); err != nil || len(tab.Rows) != 5 {
		t.Errorf("scheduler window ablation: %v", err)
	}
	if tab, err := ablation(t, l, "conventional-mapping"); err != nil || len(tab.Rows) != 5 {
		t.Errorf("conventional mapping ablation: %v", err)
	}
}
