package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"facil/internal/obs"
)

// slug lowercases s and maps every non-alphanumeric run to one dash —
// the stable table-ID form of platform and dataset names ("NVIDIA
// Jetson AGX Orin 64GB" -> "nvidia-jetson-agx-orin-64gb").
func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			if dash && b.Len() > 0 {
				b.WriteByte('-')
			}
			dash = false
			b.WriteRune(r)
		default:
			dash = true
		}
	}
	return b.String()
}

// Result is the machine-readable outcome of one experiment identifier:
// the rendered tables plus run accounting. It marshals to the JSON
// schema documented in EXPERIMENTS.md ("Machine-readable output").
type Result struct {
	// ID is the experiment identifier that was run ("fig13",
	// "serving2", ...).
	ID string `json:"id"`
	// Tables are the experiment's rendered tables (one per platform or
	// dataset for the multi-table experiments). Empty on error.
	Tables []Table `json:"tables,omitempty"`
	// ElapsedSeconds is the experiment's wall time.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Error is the failure message ("" = success).
	Error string `json:"error,omitempty"`
}

// Report bundles one whole invocation: the reproducibility manifest
// plus every experiment's Result in execution order. This is the
// document `facilsim -format json` emits.
type Report struct {
	// Manifest records the code revision, environment, command line
	// and wall time of the producing run.
	Manifest obs.Manifest `json:"manifest"`
	// Results holds one entry per experiment identifier, in the order
	// they were requested.
	Results []Result `json:"results"`
}

// WriteJSON serializes the report with indentation.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Write emits the result in one output format, the same bytes whether
// facilsim streams it or mirrors it into an `-o dir` file: "table"
// writes every table in the aligned-text form followed by a blank line,
// "csv" every table in CSV form preceded by a `# <title>` comment line
// and followed by a blank line, and "json" the result with indentation.
func (r Result) Write(w io.Writer, format string) error {
	switch format {
	case "table":
		for _, t := range r.Tables {
			if _, err := fmt.Fprintln(w, t.String()); err != nil {
				return err
			}
		}
	case "csv":
		for _, t := range r.Tables {
			if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
				return err
			}
			if err := t.WriteCSV(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	default:
		return fmt.Errorf("exp: unknown output format %q", format)
	}
	return nil
}
