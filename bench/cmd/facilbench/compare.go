package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// resultsFile is results.json: every run of one full set.
type resultsFile struct {
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"nproc"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Runs      []runResult `json:"runs"`
}

func (f resultsFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// timedValues collects each end-to-end metric's values over a set's
// timed runs of one workload, plus the distinct output digests.
func (f resultsFile) timedValues(workload string) (map[string][]float64, []string) {
	vals := map[string][]float64{}
	seen := map[string]bool{}
	var digests []string
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		if !seen[r.Digest] {
			seen[r.Digest] = true
			digests = append(digests, r.Digest)
		}
	}
	sort.Strings(digests)
	return vals, digests
}

// summarize prints each workload's end-to-end medians and quartiles
// over the set's timed runs.
func summarize(w io.Writer, f resultsFile) {
	for _, wl := range workloads {
		vals, digests := f.timedValues(wl.Name)
		if len(digests) == 0 {
			continue
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(vals[d.Name])
			fmt.Fprintf(w, "%s %s median %.6g [%.6g, %.6g] %s runs=%d\n", wl.Name, d.Name, q2, q1, q3, d.Unit, len(vals[d.Name]))
		}
		fmt.Fprintf(w, "%s output_sha256 %s\n", wl.Name, strings.Join(digests, ","))
	}
}

// compareFiles prints one row per workload × end-to-end metric: each
// side's median and quartiles over its timed runs, and the change as a
// share of the parent's median, signed so that positive is worse. A row
// is unresolved when the parent's own interquartile range is wider than
// the metric's bound, and a regression when the change is worse by more
// than the bound. Any output digest difference is flagged. The exit
// status is 1 on a regression or a digest difference.
func compareFiles(parentPath, changePath string, w io.Writer) int {
	parent, err := loadResults(parentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "facilbench: %v\n", err)
		return 2
	}
	change, err := loadResults(changePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "facilbench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-8s %-12s %-38s %-38s %8s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound", "verdict")
	for _, wl := range workloads {
		pv, pd := parent.timedValues(wl.Name)
		cv, cd := change.timedValues(wl.Name)
		if len(pd) == 0 || len(cd) == 0 {
			continue
		}
		for _, d := range endToEnd {
			p1, p2, p3 := quartiles(pv[d.Name])
			c1, c2, c3 := quartiles(cv[d.Name])
			worse := ratio(c2-p2, p2)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case ratio(p3-p1, p2) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-8s %-12s %-38s %-38s %+7.1f%% %5.0f%%  %s\n", wl.Name, d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", p2, p1, p3, d.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", c2, c1, c3, d.Unit),
				100*worse, 100*d.Bound, verdict)
		}
		if p, c := strings.Join(pd, ","), strings.Join(cd, ","); p != c {
			fmt.Fprintf(w, "%-8s output_sha256 DIFFERS: parent %s, change %s\n", wl.Name, p, c)
			code = 1
		}
	}
	return code
}
