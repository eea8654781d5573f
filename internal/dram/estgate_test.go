package dram_test

import (
	"slices"
	"testing"
	"time"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/mapping"
	"facil/internal/tune"
)

// The tuner's estimator is gated against a replay on the frozen
// ReferenceChannel rather than on the production Channel, so a faster
// production scheduler never fails the estimator's gate. This external
// test package imports tune (which imports dram) and still sees the
// test-only ReferenceChannel.

// refOverChannel is R: the paired-median ratio of a reference replay's
// time to a production Channel replay's time on the Jetson gate trace,
// measured with the per-bank FR-FCFS walk that preceded the incremental
// pick (4.17-5.74, median 4.54, over seven runs on a 2-core x86
// container). The estimator gate is 100 x R against the reference
// replay: the old 100x-against-production gate translated onto a
// denominator that never moves.
const refOverChannel = 4.5

// gateCapture captures the tuner's canonical trace for a 2048x2048
// fp16 matrix on spec, as tune's own tests do, and returns it with the
// platform's search space.
func gateCapture(t testing.TB, spec dram.Spec, sampleBytes int64) (*tune.Space, *tune.Trace) {
	t.Helper()
	g := spec.Geometry
	mc := mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}
	chunk := mapping.AiMChunk(g)
	s, err := tune.NewSpace(mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	matrix := mapping.MatrixConfig{Rows: 2048, Cols: 2048, DTypeBytes: 2}
	sel, err := mapping.SelectMapping(matrix, mc, chunk)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tune.CaptureTrace(g, tune.TraceConfig{
		Matrix:       matrix,
		Streams:      sel.RowsPerPass,
		SampleBytes:  sampleBytes,
		DecodeWeight: 65,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tr
}

// referenceReplay replays each segment of tr under m the way
// tune.ReplaySegments does, on one ReferenceChannel per channel under
// MeasureStream's drain rule: a channel whose queue passes twice the
// default window drains back to the window. buf holds the requests
// (the reference keeps pointers to them); it returns each segment's
// merged channel stats, whose LastDone is the segment's cycles, and the
// grown buffer.
func referenceReplay(spec *dram.Spec, tr *tune.Trace, m addr.Translator, buf []dram.Request) ([]dram.ChannelStats, []dram.Request) {
	offBits := uint(spec.Geometry.OffsetBits())
	channels := int64(spec.Geometry.Channels)
	drainTo := dram.DefaultWindow
	out := make([]dram.ChannelStats, len(tr.Segments))
	for si, seg := range tr.Segments {
		chans := make([]*dram.ReferenceChannel, spec.Geometry.Channels)
		for i := range chans {
			chans[i] = dram.NewReferenceChannel(spec)
		}
		buf = slices.Grow(buf[:0], seg.End-seg.Start)[:seg.End-seg.Start]
		for i := range buf {
			a, _ := m.Translate(uint64(tr.Codes[seg.Start+i]) << offBits)
			buf[i] = dram.Request{Addr: a, Arrival: int64(i) / channels}
			ch := chans[a.Channel]
			if err := ch.Enqueue(&buf[i]); err != nil {
				panic(err)
			}
			if ch.Pending() > 2*drainTo {
				ch.DrainUpTo(drainTo)
			}
		}
		for _, ch := range chans {
			ch.Drain()
			out[si].Merge(ch.Stats())
		}
	}
	return out, buf
}

// segmentStats lists each replayed segment's stats.
func segmentStats(segs []dram.StreamResult) []dram.ChannelStats {
	out := make([]dram.ChannelStats, len(segs))
	for i, s := range segs {
		out[i] = s.Stats
	}
	return out
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// TestEstimatorSpeedupGate enforces the tuner's acceptance criterion:
// the estimator evaluates >= 10^4 candidates in the time the full
// scheduler needs for <= 10^2, a >= 100x per-candidate speedup. The
// full scheduler is timed as the frozen reference replay, whose stats
// (cycles included) must equal tune.ReplaySegments', so the bar is 100 x refOverChannel.
// Each round times the estimator, a production replay and a reference
// replay (rotating which goes first), and the gate reads the median
// ratio over the rounds. It does not run under the race detector, whose
// instrumentation slows the reference and production schedulers by
// different factors, so refOverChannel does not hold there.
func TestEstimatorSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate is slow")
	}
	if raceEnabled {
		t.Skip("timing gate is calibrated without the race detector")
	}
	spec := dram.JetsonOrinLPDDR5
	s, tr := gateCapture(t, spec, 2<<20)
	genomes, _, err := s.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := tune.NewEvaluator(s, tr, spec.Timing, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.SetBaseline(genomes[0]); err != nil {
		t.Fatal(err)
	}

	var buf []dram.Request
	const rounds, nEst = 7, 100
	var refEst, prodEst, refProd []float64
	for r := 0; r < rounds; r++ {
		m, err := s.Build(genomes[r%len(genomes)])
		if err != nil {
			t.Fatal(err)
		}
		var est, prod, ref time.Duration
		var prodStats, refStats []dram.ChannelStats
		timeEst := func() {
			start := time.Now()
			for i := 0; i < nEst; i++ {
				if _, err := ev.Score(genomes[(r+i)%len(genomes)]); err != nil {
					t.Fatal(err)
				}
			}
			est = time.Since(start) / nEst
		}
		timeProd := func() {
			start := time.Now()
			segs, err := tune.ReplaySegments(spec, tr, m)
			if err != nil {
				t.Fatal(err)
			}
			prod = time.Since(start)
			prodStats = segmentStats(segs)
		}
		timeRef := func() {
			start := time.Now()
			refStats, buf = referenceReplay(&spec, tr, m, buf)
			ref = time.Since(start)
		}
		steps := []func(){timeEst, timeProd, timeRef}
		for i := range steps {
			steps[(r+i)%len(steps)]()
		}
		if !slices.Equal(prodStats, refStats) {
			t.Fatalf("round %d: reference replay %+v, ReplaySegments %+v", r, refStats, prodStats)
		}
		refEst = append(refEst, float64(ref)/float64(est))
		prodEst = append(prodEst, float64(prod)/float64(est))
		refProd = append(refProd, float64(ref)/float64(prod))
	}
	bar := 100 * refOverChannel
	got, prod, rp := median(refEst), median(prodEst), median(refProd)
	t.Logf("paired medians over %d rounds: estimator %.0fx the reference replay (bar %.0fx), %.0fx the production replay; reference/production %.2f",
		rounds, got, bar, prod, rp)
	if got < bar {
		t.Fatalf("estimator only %.0fx faster than the reference replay, want >= %.0fx (100 x %.1f)", got, bar, refOverChannel)
	}
}

// TestReferenceReplayCycles is the tuner-level differential: on every
// platform's capture trace and under each seed MapID, the reference
// replay's per-segment stats and cycles equal tune.ReplaySegments'. The traces are
// sampled at 256 KiB per phase in -short mode.
func TestReferenceReplayCycles(t *testing.T) {
	sample := int64(2 << 20)
	if testing.Short() {
		sample = 256 << 10
	}
	var buf []dram.Request
	for _, spec := range []dram.Spec{dram.JetsonOrinLPDDR5, dram.MacbookLPDDR5, dram.IdeaPadLPDDR5X, dram.IPhoneLPDDR5} {
		s, tr := gateCapture(t, spec, sample)
		genomes, ids, err := s.Seeds()
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range genomes {
			m, err := s.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			segs, err := tune.ReplaySegments(spec, tr, m)
			if err != nil {
				t.Fatal(err)
			}
			var ref []dram.ChannelStats
			ref, buf = referenceReplay(&spec, tr, m, buf)
			if got := segmentStats(segs); !slices.Equal(got, ref) {
				t.Errorf("%s MapID %d: ReplaySegments %+v, reference %+v", spec.Name, ids[i], got, ref)
			}
		}
	}
}
