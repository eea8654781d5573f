package soc

import "testing"

func TestLayoutSlowdownSmall(t *testing.T) {
	// Table III: GEMM on the PIM-optimized layout loses at most a few
	// percent when the kernel has normal memory-level parallelism.
	op := Linear{L: 64, In: 4096, Out: 4096, DTypeBytes: 2}
	mem, err := MeasureMemSlowdown(IPhone, op, LayoutSlowdownConfig{SampleBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	opSlow := mem * IPhone.MemoryBoundFraction(op)
	if mem < 0 {
		t.Errorf("negative memory slowdown %g", mem)
	}
	if mem > 0.15 {
		t.Errorf("memory-phase slowdown = %.3f, want small (< 15%%)", mem)
	}
	if opSlow > mem+1e-12 {
		t.Errorf("op slowdown %g exceeds memory slowdown %g", opSlow, mem)
	}
}

func TestLayoutSlowdownFewStreamsWorse(t *testing.T) {
	// With little memory-level parallelism the PIM layout's per-row
	// bank locality hurts much more — the reason GPUs' abundant
	// parallelism is what keeps Table III small.
	op := Linear{L: 16, In: 4096, Out: 4096, DTypeBytes: 2}
	oneStream, err := MeasureMemSlowdown(IPhone, op, LayoutSlowdownConfig{Streams: 1, SampleBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	manyStreams, err := MeasureMemSlowdown(IPhone, op, LayoutSlowdownConfig{Streams: 128, SampleBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if oneStream <= manyStreams {
		t.Errorf("1-stream slowdown %.3f not worse than 128-stream %.3f", oneStream, manyStreams)
	}
}

func TestLayoutSlowdownValidation(t *testing.T) {
	if _, err := MeasureMemSlowdown(IPhone, Linear{}, LayoutSlowdownConfig{}); err == nil {
		t.Error("invalid op accepted")
	}
}
