// Package trace reads and generates physical-address memory
// traces for the DRAM simulator, in a line-oriented text format
// compatible with common academic trace tools:
//
//	# comment
//	<arrival-cycle> <R|W> 0x<phys-addr>
//
// Traces are translated to DRAM requests through any PA-to-DA mapping,
// which makes the simulator usable as a standalone tool (cmd/facildram).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"facil/internal/addr"
	"facil/internal/dram"
)

// Entry is one trace record.
type Entry struct {
	// Arrival is the request's arrival cycle.
	Arrival int64
	// Write marks a write burst.
	Write bool
	// Phys is the physical byte address (aligned down to the transfer
	// size during translation).
	Phys uint64
}

// Parse reads a text trace.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want '<cycle> <R|W> <addr>', got %q", lineNo, line)
		}
		cycle, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || cycle < 0 {
			return nil, fmt.Errorf("trace: line %d: bad cycle %q", lineNo, fields[0])
		}
		var write bool
		switch strings.ToUpper(fields[1]) {
		case "R":
		case "W":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[1])
		}
		pa, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[2])
		}
		out = append(out, Entry{Arrival: cycle, Write: write, Phys: pa})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ToRequests translates entries into DRAM requests through a mapping.
// Addresses beyond the geometry's capacity wrap (common in synthetic
// traces). The result is a value slice, replayable without copies via
// dram.SliceSource.
func ToRequests(entries []Entry, m *addr.Mapping) []dram.Request {
	g := m.Geometry()
	cap := uint64(g.CapacityBytes())
	out := make([]dram.Request, len(entries))
	for i, e := range entries {
		a, _ := m.Translate(e.Phys % cap)
		out[i] = dram.Request{Addr: a, Write: e.Write, Arrival: e.Arrival}
	}
	return out
}

// Sequential generates a streaming read trace of `bytes` bytes in
// transfer-size steps, arriving back to back.
func Sequential(bytes int64, transfer int, write bool) []Entry {
	n := bytes / int64(transfer)
	out := make([]Entry, n)
	for i := int64(0); i < n; i++ {
		out[i] = Entry{Phys: uint64(i) * uint64(transfer), Write: write}
	}
	return out
}

// Random generates n uniformly random transfer-aligned accesses within
// `span` bytes with the given write fraction, arriving at `rate`
// requests/cycle.
func Random(n int, span int64, transfer int, writeFrac, rate float64, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	var cycle float64
	step := 0.0
	if rate > 0 {
		step = 1 / rate
	}
	slots := span / int64(transfer)
	for i := range out {
		out[i] = Entry{
			Arrival: int64(cycle),
			Phys:    uint64(rng.Int63n(slots)) * uint64(transfer),
			Write:   rng.Float64() < writeFrac,
		}
		cycle += step
	}
	return out
}

// Strided generates n accesses walking `span` bytes with a fixed stride.
func Strided(n int, stride int64, transfer int) []Entry {
	out := make([]Entry, n)
	var pa uint64
	for i := range out {
		out[i] = Entry{Phys: pa}
		pa += uint64(stride)
	}
	_ = transfer
	return out
}
