package exp

import (
	"encoding/csv"
	"io"
)

// WriteCSV emits the table in RFC-4180 CSV form: one header row followed
// by the data rows. Notes are appended as comment-style rows prefixed
// with "#" in the first column, so spreadsheet imports keep the caveats
// next to the numbers.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		row := make([]string, len(t.Header))
		if len(row) == 0 {
			row = []string{""}
		}
		row[0] = "# " + n
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
