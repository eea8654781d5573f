package dram

import (
	"sort"
	"testing"
	"time"
)

// benchStream builds a locality-mixed request stream (the relayout-style
// read/write interleave plus bank rotation) sized for steady-state
// scheduler measurement on one channel.
func benchStream(spec *Spec, n int) []Request {
	g := spec.Geometry
	cols := g.ColumnsPerRow()
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Addr: Addr{
				Rank:   (i / cols / g.BanksPerRank) % g.RanksPerChannel,
				Bank:   (i / cols) % g.BanksPerRank,
				Row:    (i / cols / g.BanksPerRank / g.RanksPerChannel) % g.Rows,
				Column: i % cols,
			},
			Write: i%4 == 3,
		}
	}
	return reqs
}

// BenchmarkChannelDrain measures the optimized scheduler's steady-state
// cost per request on the default test LPDDR5 spec. The channel is warmed
// before timing so the slot pool is grown; after that
// the enqueue+drain loop must not allocate (the 0 allocs/op acceptance
// gate, also enforced by TestSteadyStateZeroAllocs).
func BenchmarkChannelDrain(b *testing.B) {
	spec := smallSpec()
	reqs := benchStream(&spec, 4096)
	ch := NewChannel(&spec)
	for i := range reqs {
		if err := ch.EnqueueValue(reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	ch.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			if err := ch.EnqueueValue(reqs[j]); err != nil {
				b.Fatal(err)
			}
		}
		ch.Drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reqs)), "ns/req")
}

// BenchmarkReferenceChannelDrain is BenchmarkChannelDrain on the retained
// reference scheduler — the denominator of the speedup the rewrite buys.
func BenchmarkReferenceChannelDrain(b *testing.B) {
	spec := smallSpec()
	reqs := benchStream(&spec, 4096)
	ch := NewReferenceChannel(&spec)
	for i := range reqs {
		if err := ch.Enqueue(&reqs[i]); err != nil {
			b.Fatal(err)
		}
	}
	ch.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			if err := ch.Enqueue(&reqs[j]); err != nil {
				b.Fatal(err)
			}
		}
		ch.Drain()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(reqs)), "ns/req")
}

// BenchmarkReplayStream measures the full streaming replay path — pull
// source, value enqueue, bounded-queue drain — in simulated bytes per
// wall-clock second (MB/s throughput of the simulator itself).
func BenchmarkReplayStream(b *testing.B) {
	spec := smallSpec()
	const n = 1 << 16
	b.SetBytes(int64(n) * int64(spec.Geometry.TransferBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureStream(spec, sequentialSource(&spec, n), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateZeroAllocs is the allocation regression gate: once the
// channel's slot pool is warm, enqueue-by-value and drain must not
// allocate at all.
func TestSteadyStateZeroAllocs(t *testing.T) {
	spec := smallSpec()
	reqs := benchStream(&spec, 2048)
	ch := NewChannel(&spec)
	warm := func() {
		for i := range reqs {
			if err := ch.EnqueueValue(reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		ch.Drain()
	}
	warm()
	if avg := testing.AllocsPerRun(10, warm); avg != 0 {
		t.Fatalf("steady-state enqueue+drain allocates %.1f times per run, want 0", avg)
	}
}

// TestOptimizedSchedulerSpeedup gates the perf win: the optimized
// scheduler must beat the reference by at least 3x on the default
// LPDDR5 spec (the acceptance bar). One wall-clock sample per scheduler
// is noisy on a shared runner, so the gate takes the median of paired
// ratios over interleaved rounds: each round times a batch of
// enqueue+drain runs on both schedulers back to back, alternating which
// goes first.
func TestOptimizedSchedulerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	const rounds, reps = 7, 10
	spec := smallSpec()
	reqs := benchStream(&spec, 4096)

	opt := NewChannel(&spec)
	ref := NewReferenceChannel(&spec)
	batch := func(run func()) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			run()
		}
		return time.Since(start)
	}
	runOpt := func() {
		for j := range reqs {
			opt.EnqueueValue(reqs[j])
		}
		opt.Drain()
	}
	runRef := func() {
		for j := range reqs {
			ref.Enqueue(&reqs[j])
		}
		ref.Drain()
	}
	runOpt() // warm the slot pool and the reference queue
	runRef()
	ratios := make([]float64, rounds)
	for r := range ratios {
		var optD, refD time.Duration
		if r%2 == 0 {
			optD, refD = batch(runOpt), batch(runRef)
		} else {
			refD, optD = batch(runRef), batch(runOpt)
		}
		ratios[r] = float64(refD) / float64(optD)
	}
	sort.Float64s(ratios)
	t.Logf("paired ref/opt ratios %.2f", ratios)
	if med := ratios[rounds/2]; med < 3 {
		t.Errorf("optimized scheduler only %.2fx faster than reference (median of %d paired rounds), want >= 3x", med, rounds)
	}
}
