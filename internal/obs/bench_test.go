package obs

import "testing"

// sinkTracer defeats dead-code elimination of the nil receiver.
var sinkTracer *Tracer

// BenchmarkTracerDisabled pins the cost of an event on the disabled
// (nil) tracer — a single pointer test, the price every hot path pays
// when tracing is off. The observability budget (DESIGN.md §8) requires
// ≤2 ns/event; on this container it measures well under 1 ns.
func BenchmarkTracerDisabled(b *testing.B) {
	tr := sinkTracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.CompleteArg(1, 0, "prefill", float64(i), 1, "query", float64(i))
	}
}

// BenchmarkTracerEnabled measures the enabled hot path: one mutex
// hold plus a fixed-size copy into the preallocated ring — no
// allocation (ReportAllocs must show 0 allocs/op).
func BenchmarkTracerEnabled(b *testing.B) {
	tr := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CompleteArg(1, 0, "prefill", float64(i), 1, "query", float64(i))
	}
}

// TestTracerDisabledOverhead enforces the disabled-path budget with a
// miniature benchmark run. The bound is deliberately loose (20 ns vs
// the ~1 ns measured) so a shared CI runner cannot flake it, while a
// regression that adds locking or allocation to the disabled path still
// fails outright. The time budget holds for plain builds only: the race
// detector instruments the nil-receiver call's entry and exit, which
// alone costs 20-29 ns per event on a 2-core runner. The allocation
// check runs under both.
func TestTracerDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	res := testing.Benchmark(BenchmarkTracerDisabled)
	if res.AllocsPerOp() != 0 {
		t.Fatalf("disabled tracer allocates: %d allocs/op", res.AllocsPerOp())
	}
	if ns := float64(res.T.Nanoseconds()) / float64(res.N); !raceEnabled && ns > 20 {
		t.Fatalf("disabled tracer costs %.1f ns/event, want ≤2 (20 with CI slack)", ns)
	}
}

// TestTracerEnabledNoAllocs pins the zero-alloc contract of the enabled
// hot path.
func TestTracerEnabledNoAllocs(t *testing.T) {
	tr := New(1 << 10)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.CompleteArg(1, 0, "prefill", 0, 1, "query", 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer allocates %.1f allocs/op on the hot path", allocs)
	}
}
