package soc

import (
	"fmt"
	"hash/fnv"
	"testing"

	"facil/internal/dram"
	"facil/internal/mapping"
)

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

// streamDigest hashes every request a source yields.
func streamDigest(src dram.RequestSource) uint64 {
	h := fnv.New64a()
	var r dram.Request
	for src(&r) {
		a := r.Addr
		fmt.Fprintf(h, "%d %d %d %d %d %v %d;", a.Channel, a.Rank, a.Bank, a.Row, a.Column, r.Write, r.Arrival)
	}
	return h.Sum64()
}

// TestGemmReplayKeyExact is the replay memo's exactness property for the
// GEMM weight stream: over a grid of (rows, row bytes, streams, sample
// bytes), the stream a key yields equals the unclamped walk, and two
// grid points with equal keys yield identical request streams. The grid
// straddles the row clamp, so a key that forgot a parameter (rows,
// say) would equate two points whose streams differ.
func TestGemmReplayKeyExact(t *testing.T) {
	spec := IPhone.Spec
	g := spec.Geometry
	tab, err := mapping.NewTable(mapping.MemoryConfig{Geometry: g, HugePageBytes: 2 << 20}, mapping.AiMChunk(g))
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := tab.Range()
	seen := make(map[gemmReplay]uint64)
	distinct := 0
	for _, id := range []mapping.MapID{mapping.ConventionalMapID, lo} {
		for _, rows := range []int{1, 3, 4, 7, 8, 9, 64, 100} {
			for _, rowBytes := range []int64{64, 96, 2048} {
				for _, streams := range []int{1, 2, 4, 8, 64} {
					for _, sample := range []int64{1 << 10, 4 << 10, 16 << 10} {
						key := newGemmReplay(spec, tab, id, rows, rowBytes, streams, sample)
						raw := streamDigest(gemmWeightStream(tab.Lookup(id), rows, rowBytes, streams, g.Channels, sample, int64(g.TransferBytes)))
						if d := streamDigest(key.source(tab)); d != raw {
							t.Fatalf("rows=%d rowBytes=%d streams=%d sample=%d: key %+v yields a different stream than the unclamped walk", rows, rowBytes, streams, sample, key)
						}
						if d, ok := seen[key]; !ok {
							seen[key] = raw
							distinct++
						} else if d != raw {
							t.Fatalf("rows=%d rowBytes=%d streams=%d sample=%d: key %+v already keys a different stream", rows, rowBytes, streams, sample, key)
						}
					}
				}
			}
		}
	}
	t.Logf("%d grid points, %d distinct keys", 2*8*3*5*3, distinct)
}
