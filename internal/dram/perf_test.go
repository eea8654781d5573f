package dram

import (
	"runtime"
	"testing"
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
// before timing so the slot pool and arrival heap are grown; after that
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
// scheduler must beat the reference by at least 3x ns/request on the
// default LPDDR5 spec (the acceptance bar; it measures ~10x on an idle
// single-core runner, so 3x leaves headroom for CI noise).
func TestOptimizedSchedulerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	spec := smallSpec()
	reqs := benchStream(&spec, 4096)

	opt := NewChannel(&spec)
	ref := NewReferenceChannel(&spec)
	time := func(run func()) float64 {
		run() // warm
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run()
			}
		})
		return float64(r.NsPerOp())
	}
	optNs := time(func() {
		for j := range reqs {
			opt.EnqueueValue(reqs[j])
		}
		opt.Drain()
	})
	refNs := time(func() {
		for j := range reqs {
			ref.Enqueue(&reqs[j])
		}
		ref.Drain()
	})
	if ratio := refNs / optNs; ratio < 3 {
		t.Errorf("optimized scheduler only %.2fx faster than reference (opt %.0f ns, ref %.0f ns), want >= 3x",
			ratio, optNs, refNs)
	}
}

// TestParallelDrainMatchesSerial pins the parallel controller drain to the
// serial one: same completion cycle, same merged stats, same per-request
// Done cycles. GOMAXPROCS is raised for the parallel run so the test
// exercises the concurrent path even on a single-core runner.
func TestParallelDrainMatchesSerial(t *testing.T) {
	spec, err := LPDDR5("par drain test", 64, 6400, 2, 1<<30) // 4 channels
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Geometry
	cols := g.ColumnsPerRow()
	mkReqs := func() []Request {
		reqs := make([]Request, 20_000)
		for i := range reqs {
			reqs[i] = Request{
				Addr: Addr{
					Channel: i % g.Channels,
					Rank:    (i / cols) % g.RanksPerChannel,
					Bank:    (i * 7 / cols) % g.BanksPerRank,
					Row:     (i / cols / g.BanksPerRank) % g.Rows,
					Column:  i % cols,
				},
				Write:   i%5 == 0,
				Arrival: int64(i / (2 * g.Channels)),
			}
		}
		return reqs
	}

	run := func(procs int) (int64, ChannelStats, []int64) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		ctl, err := NewController(spec)
		if err != nil {
			t.Fatal(err)
		}
		reqs := mkReqs()
		for i := range reqs {
			if err := ctl.Enqueue(&reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		last := ctl.Drain()
		dones := make([]int64, len(reqs))
		for i := range reqs {
			dones[i] = reqs[i].Done
		}
		return last, ctl.Stats(), dones
	}

	serialLast, serialStats, serialDones := run(1)
	parLast, parStats, parDones := run(4)
	if serialLast != parLast {
		t.Fatalf("completion diverged: serial=%d parallel=%d", serialLast, parLast)
	}
	if serialStats != parStats {
		t.Fatalf("stats diverged:\nserial:   %+v\nparallel: %+v", serialStats, parStats)
	}
	for i := range serialDones {
		if serialDones[i] != parDones[i] {
			t.Fatalf("request %d Done diverged: serial=%d parallel=%d", i, serialDones[i], parDones[i])
		}
	}
}
