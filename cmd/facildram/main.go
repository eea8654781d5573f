// Command facildram is a standalone cycle-level DRAM simulator: it replays
// a physical-address trace (or a generated pattern) through a configurable
// LPDDR5 memory system under any PA-to-DA mapping and reports achieved
// bandwidth, row locality and command statistics.
//
// Usage:
//
//	facildram [flags]
//
//	facildram -gen sequential -bytes 16777216
//	facildram -gen random -n 100000 -rate 0.5
//	facildram -trace accesses.txt -mapping row:rank:bank:column:channel
//	facildram -platform macbook -gen sequential -bytes 33554432 -window 64
//	facildram -gen random -n 100000 -traceout counters.json
//
// -traceout FILE records per-channel scheduler counters (row hits and
// misses, reads/writes, activations, refresh markers) as Chrome
// trace-event JSON viewable in Perfetto (see internal/obs).
//
// -refreshmult M raises the refresh rate by M (tREFI divided by M), the
// JEDEC response to high DRAM temperature; M=2 reproduces the thermal
// throttle the serving simulator's fault layer measures its slowdown
// from.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/obs"
	"facil/internal/soc"
	"facil/internal/trace"
)

func main() {
	var (
		platform  = flag.String("platform", "jetson", "memory system: jetson, macbook, ideapad, iphone")
		mapLayout = flag.String("mapping", "row:rank:column:bank:channel", "PA-to-DA mapping, MSB->LSB")
		traceFile = flag.String("trace", "", "trace file (<cycle> <R|W> 0x<addr> per line)")
		gen       = flag.String("gen", "", "generate a pattern instead: sequential, random, strided")
		bytes     = flag.Int64("bytes", 8<<20, "sequential: bytes to stream")
		n         = flag.Int("n", 100000, "random/strided: request count")
		rate      = flag.Float64("rate", 1.0, "random: arrival rate, requests/cycle")
		writeFrac = flag.Float64("writefrac", 0.25, "random: write fraction")
		stride    = flag.Int64("stride", 4096, "strided: stride in bytes")
		seed      = flag.Int64("seed", 1, "random: PRNG seed")
		window    = flag.Int("window", 0, "FR-FCFS reorder window (0 = default)")
		noRefresh = flag.Bool("norefresh", false, "disable refresh")
		refMult   = flag.Float64("refreshmult", 1, "refresh-rate multiplier >= 1 (2 = temperature-doubled refresh, tREFI halved)")
		traceOut  = flag.String("traceout", "", "write per-channel counter trace (Chrome trace-event JSON) to this file")
	)
	flag.Parse()

	spec, err := specByName(*platform)
	if err != nil {
		fatal(err)
	}
	if *refMult < 1 {
		fatal(fmt.Errorf("-refreshmult must be >= 1, got %g", *refMult))
	}
	spec = spec.Derated(*refMult)
	m, err := addr.FromLayout(spec.Geometry, *mapLayout)
	if err != nil {
		fatal(err)
	}

	var entries []trace.Entry
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		entries, err = trace.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *gen == "sequential":
		entries = trace.Sequential(*bytes, spec.Geometry.TransferBytes, false)
	case *gen == "random":
		entries = trace.Random(*n, spec.Geometry.CapacityBytes(), spec.Geometry.TransferBytes, *writeFrac, *rate, *seed)
	case *gen == "strided":
		entries = trace.Strided(*n, *stride, spec.Geometry.TransferBytes)
	default:
		fatal(fmt.Errorf("provide -trace FILE or -gen sequential|random|strided"))
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("empty trace"))
	}

	reqs := trace.ToRequests(entries, m)
	if *noRefresh || *traceOut != "" {
		// MeasureStreamFuncWindow builds its own controller; run manually
		// when refresh must be disabled or a tracer attached.
		ctl, err := dram.NewController(spec)
		if err != nil {
			fatal(err)
		}
		ctl.SetRefreshEnabled(!*noRefresh)
		if *window > 0 {
			for i := 0; i < spec.Geometry.Channels; i++ {
				ctl.Channel(i).SetWindow(*window)
			}
		}
		var tr *obs.Tracer
		if *traceOut != "" {
			tr = obs.New(0)
			ctl.SetTracer(tr, 0)
		}
		for _, r := range reqs {
			if err := ctl.EnqueueValue(r); err != nil {
				fatal(err)
			}
		}
		cycles := ctl.Drain()
		report(spec, *mapLayout, len(reqs), cycles, ctl.Stats())
		if tr != nil {
			if err := tr.WriteFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Printf("trace:         %s (%d events, %d dropped)\n", *traceOut, tr.Len(), tr.Dropped())
		}
		return
	}
	res, err := dram.MeasureStreamFuncWindow(spec, dram.SliceSource(reqs), *window)
	if err != nil {
		fatal(err)
	}
	report(spec, *mapLayout, len(reqs), res.Cycles, res.Stats)
}

func specByName(name string) (dram.Spec, error) {
	switch strings.ToLower(name) {
	case "jetson":
		return soc.Jetson.Spec, nil
	case "macbook":
		return soc.Macbook.Spec, nil
	case "ideapad":
		return soc.IdeaPad.Spec, nil
	case "iphone":
		return soc.IPhone.Spec, nil
	default:
		return dram.Spec{}, fmt.Errorf("facildram: unknown platform %q", name)
	}
}

func report(spec dram.Spec, layout string, n int, cycles int64, s dram.ChannelStats) {
	secs := spec.Timing.Seconds(cycles)
	bytes := (s.Reads + s.Writes) * int64(spec.Geometry.TransferBytes)
	fmt.Printf("memory:        %s\n", spec.Name)
	fmt.Printf("mapping:       %s\n", layout)
	fmt.Printf("requests:      %d (%d reads, %d writes)\n", n, s.Reads, s.Writes)
	fmt.Printf("cycles:        %d (%.3f ms)\n", cycles, secs*1e3)
	if secs > 0 {
		fmt.Printf("bandwidth:     %.2f GB/s (%.1f%% of peak %.1f)\n",
			float64(bytes)/secs/1e9,
			100*float64(bytes)/secs/1e9/spec.PeakBandwidthGBs(),
			spec.PeakBandwidthGBs())
	}
	if hm := s.RowHits + s.RowMisses; hm > 0 {
		fmt.Printf("row hit rate:  %.1f%%\n", 100*float64(s.RowHits)/float64(hm))
	}
	fmt.Printf("activations:   %d\n", s.Activations)
	fmt.Printf("refreshes:     %d\n", s.Refreshes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "facildram:", err)
	os.Exit(1)
}
