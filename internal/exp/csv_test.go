package exp

import (
	"strings"
	"testing"
)

func TestTableCSV(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", "z"}},
		Notes:  []string{"caveat"},
	}
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "# caveat") {
		t.Errorf("note row = %q", lines[3])
	}
}

func TestExperimentTablesExportCSV(t *testing.T) {
	tab := Table2()
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "NVIDIA Jetson AGX Orin 64GB") {
		t.Error("CSV missing platform row")
	}
}
