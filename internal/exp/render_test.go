package exp

import (
	"context"
	"strings"
	"testing"

	"facil/internal/soc"
	"facil/internal/workload"
)

// Rendering smoke tests: every table generator produces a non-empty,
// well-formed table with the expected headers.

func TestRenderFig2aFig3Fig6(t *testing.T) {
	l := testLab()
	for _, id := range []string{"fig2a", "fig3", "fig6"} {
		tabs, err := l.Run(context.Background(), id, DefaultConfigs())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := tabs[0].String()
		if !strings.Contains(out, "Fig.") {
			t.Errorf("%s: missing title:\n%s", id, out)
		}
	}
}

func TestRenderFig13Fig14(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fig13/fig14 render in -short mode (golden files cover the output)")
	}
	l := testLab()
	tab, err := l.Fig13(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || !strings.Contains(tab.Header[1], "P8") {
		t.Errorf("fig13 table malformed: %v", tab.Header)
	}
	tab, err = l.Fig14(context.Background(), soc.IPhone)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Fig14Lengths) {
		t.Errorf("fig14 rows = %d", len(tab.Rows))
	}
}

func TestRenderFig15Fig16Small(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fig15/fig16 render in -short mode (golden files cover the output)")
	}
	l := testLab()
	cfg := DatasetConfig{Queries: 10, Seed: 3}
	tab, err := l.Fig15(context.Background(), workload.AlpacaSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("fig15 rows = %d", len(tab.Rows))
	}
	tab, err = l.Fig16(context.Background(), workload.AlpacaSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.Rows[0][len(tab.Rows[0])-1], "vs SoC-only") {
		t.Errorf("fig16 FACIL cell missing SoC-only comparison: %v", tab.Rows[0])
	}
}

func TestRenderTable1Small(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Scale = 64
	tab, err := testLab().Table1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Header) != 5 {
		t.Errorf("table1 shape: %dx%d", len(tab.Rows), len(tab.Header))
	}
	if !strings.Contains(tab.Rows[0][1], "s (") {
		t.Errorf("table1 cell format: %q", tab.Rows[0][1])
	}
}

func TestRenderAblationRelayoutPolicy(t *testing.T) {
	l := testLab()
	tab, err := ablation(t, l, "relayout-policy")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("relayout-policy rows = %d", len(tab.Rows))
	}
}

func TestRenderXORHashing(t *testing.T) {
	tab, err := ablation(t, testLab(), "xor-hashing")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("xor rows = %d", len(tab.Rows))
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "recovers") {
		t.Errorf("xor notes = %v", tab.Notes)
	}
}

func TestRenderTable2AndMaxMap(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 4 {
		t.Errorf("table2 rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Errorf("table2 row width %d != header %d", len(r), len(tab.Header))
		}
	}
}
