package vm

import (
	"fmt"
	"math/rand"
)

// The model-weight load-time model of the paper's Table I testbed
// (Jetson AGX Orin + Samsung 980 Pro NVMe).
const (
	// storageReadGBs is the effective sequential read bandwidth from
	// storage into memory during model load, including filesystem and
	// page-fault overheads (GB/s): the baseline (non-huge-page) load of
	// the 16.2 GB Llama3-8B checkpoint took ~8.8 s.
	storageReadGBs = 1.83
	// zeroGBs is the bandwidth at which the kernel clears a freshly
	// allocated huge page at fault time (GB/s). Base pages are cleared
	// in the shadow of storage I/O and carry no extra cost here.
	zeroGBs = 12.0
	// compactCopyGBs is the effective migration bandwidth of kernel
	// compaction, including page-table fixups (GB/s of bytes moved;
	// each moved byte is read and written).
	compactCopyGBs = 2.0
	// compactScanWindow bounds the compaction region scan.
	compactScanWindow = 4096
)

// LoadResult reports one simulated model load.
type LoadResult struct {
	// Seconds is the huge-page load time.
	Seconds float64
	// BaselineSeconds is the base-page load time (storage-bound).
	BaselineSeconds float64
	// Normalized is Seconds / BaselineSeconds, the parenthesized value
	// in the paper's Table I.
	Normalized float64
	// HugePages is the number of 2 MB pages allocated.
	HugePages int64
	// CompactedPages counts allocations that required compaction.
	CompactedPages int64
	// MovedBytes is the total migration traffic.
	MovedBytes int64
	// MeasuredFMFI is the fragmentation index of the synthesized state
	// at HugeOrder, before allocation began.
	MeasuredFMFI float64
	// FreeBytes is the synthesized free memory before allocation.
	FreeBytes int64
}

// SimulateModelLoad reproduces one cell of Table I: load `modelBytes` of
// weights into huge pages on a machine with `totalMemBytes` of DRAM, of
// which `freeRel` x modelBytes is free, fragmented to `scatter` FMFI.
func SimulateModelLoad(modelBytes, totalMemBytes int64, freeRel, scatter float64, seed int64) (LoadResult, error) {
	if modelBytes <= 0 || totalMemBytes <= 0 {
		return LoadResult{}, fmt.Errorf("vm: sizes must be positive")
	}
	freeBytes := int64(freeRel * float64(modelBytes))
	if freeBytes > totalMemBytes {
		return LoadResult{}, fmt.Errorf("vm: free memory %d exceeds total %d", freeBytes, totalMemBytes)
	}
	if freeBytes < modelBytes {
		return LoadResult{}, fmt.Errorf("vm: model %d does not fit in free memory %d", modelBytes, freeBytes)
	}
	frames := int(totalMemBytes / BasePageBytes)
	b, err := NewBuddy(frames, 0)
	if err != nil {
		return LoadResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	if err := SynthesizeFragmentation(b, freeBytes/BasePageBytes, scatter, rng); err != nil {
		return LoadResult{}, err
	}

	res := LoadResult{
		FreeBytes:    b.FreeFrames() * BasePageBytes,
		MeasuredFMFI: b.FMFI(HugeOrder),
	}
	pages := (modelBytes + HugePageBytes - 1) / HugePageBytes
	res.HugePages = pages
	cursor := 0
	var movedFrames int64
	for i := int64(0); i < pages; i++ {
		_, moved, err := b.AllocHugePage(&cursor, compactScanWindow)
		if err != nil {
			return LoadResult{}, fmt.Errorf("vm: huge page %d/%d: %w", i, pages, err)
		}
		if moved > 0 {
			res.CompactedPages++
			movedFrames += int64(moved)
		}
	}
	res.MovedBytes = movedFrames * BasePageBytes

	readSec := float64(modelBytes) / (storageReadGBs * 1e9)
	zeroSec := float64(pages*HugePageBytes) / (zeroGBs * 1e9)
	// Compaction both reads and writes every moved byte.
	compactSec := 2 * float64(res.MovedBytes) / (compactCopyGBs * 1e9)
	res.Seconds = readSec + zeroSec + compactSec
	res.BaselineSeconds = readSec
	res.Normalized = res.Seconds / res.BaselineSeconds
	return res, nil
}
