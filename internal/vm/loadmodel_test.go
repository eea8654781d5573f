package vm

import "testing"

// The load-time model runs on scaled-down sizes in unit tests; the Table I
// bench uses the paper's full 16.2 GB / 64 GB configuration.

func TestSimulateModelLoadBaseline(t *testing.T) {
	model := int64(256 << 20)
	total := int64(2 << 30)
	res, err := SimulateModelLoad(model, total, 2.5, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normalized < 1.0 {
		t.Errorf("huge pages faster than baseline: %+v", res)
	}
	// With low fragmentation, the overhead is just zeroing: bounded by
	// 1 + read/zero ratio.
	maxFloor := 1 + zeroGBs/storageReadGBs // generous bound
	if res.Normalized > maxFloor {
		t.Errorf("low-fragmentation normalized = %g too high", res.Normalized)
	}
	if res.CompactedPages != 0 {
		t.Errorf("unfragmented load compacted %d pages", res.CompactedPages)
	}
	if res.HugePages != 128 {
		t.Errorf("HugePages = %d, want 128", res.HugePages)
	}
}

func TestSimulateModelLoadMonotoneInFMFI(t *testing.T) {
	model := int64(256 << 20)
	total := int64(2 << 30)
	prev := 0.0
	for _, scatter := range []float64{0.05, 0.45, 0.75} {
		res, err := SimulateModelLoad(model, total, 1.1, scatter, 42)
		if err != nil {
			t.Fatalf("scatter %g: %v", scatter, err)
		}
		if res.Seconds < prev {
			t.Errorf("load time not monotone in FMFI: %g then %g at scatter %g",
				prev, res.Seconds, scatter)
		}
		prev = res.Seconds
	}
}

func TestSimulateModelLoadMonotoneInPressure(t *testing.T) {
	model := int64(256 << 20)
	total := int64(2 << 30)
	prev := 0.0
	// Tighter free memory (lower freeRel) must not speed up the load.
	for _, rel := range []float64{2.5, 2.0, 1.5, 1.1} {
		res, err := SimulateModelLoad(model, total, rel, 0.45, 42)
		if err != nil {
			t.Fatalf("rel %g: %v", rel, err)
		}
		if res.Seconds+1e-9 < prev {
			t.Errorf("load time decreased under pressure: %g -> %g at rel %g",
				prev, res.Seconds, rel)
		}
		prev = res.Seconds
	}
}

func TestSimulateModelLoadHighFragmentationCompacts(t *testing.T) {
	res, err := SimulateModelLoad(256<<20, 2<<30, 1.1, 0.75, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompactedPages == 0 {
		t.Error("heavily fragmented load required no compaction")
	}
	if res.MovedBytes == 0 {
		t.Error("compaction moved no bytes")
	}
	if res.MeasuredFMFI < 0.6 {
		t.Errorf("synthesized FMFI = %g, want >= 0.6", res.MeasuredFMFI)
	}
}

func TestSimulateModelLoadErrors(t *testing.T) {
	if _, err := SimulateModelLoad(0, 1<<30, 2, 0.1, 1); err == nil {
		t.Error("zero model size accepted")
	}
	if _, err := SimulateModelLoad(1<<30, 1<<30, 2, 0.1, 1); err == nil {
		t.Error("free memory larger than total accepted")
	}
	if _, err := SimulateModelLoad(1<<30, 4<<30, 0.5, 0.1, 1); err == nil {
		t.Error("model larger than free memory accepted")
	}
}
