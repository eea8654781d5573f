// Package relayout models the cost of re-laying tensors between DRAM
// address mappings — the overhead FACIL eliminates. Following the paper's
// methodology (Sec. VI-A, "Baseline"), the cost is the memory access time
// required to read every byte of the tensor through the source mapping and
// write it back through the destination mapping, with the full memory
// bandwidth available. The traffic is replayed on the cycle-level DRAM
// simulator; for large tensors a sample window is simulated and scaled.
package relayout

import (
	"fmt"

	"facil/internal/dram"
	"facil/internal/mapping"
)

// DefaultSampleBytes is the simulated window for large tensors. One window
// covers several huge pages, enough for the achieved bandwidth of the
// read+write stream to converge.
const DefaultSampleBytes = 8 << 20

// Result describes one re-layout measurement.
type Result struct {
	// Bytes is the tensor size re-laid.
	Bytes int64
	// Seconds is the modeled wall-clock re-layout time.
	Seconds float64
	// EffectiveGBs is the achieved combined read+write bandwidth.
	EffectiveGBs float64
	// SimulatedBytes is the sample window actually replayed.
	SimulatedBytes int64
	// RowHitRate of the combined stream.
	RowHitRate float64
}

// Engine measures re-layout costs for one platform. The achieved
// bandwidth of the streaming pattern is size-independent once past a few
// huge pages, so each (src, dst) pair replays one sample window through
// dram's process memo: concurrent misses replay once, and Engines of
// separate Systems on one platform share the replay. An Engine is safe
// for concurrent use.
type Engine struct {
	spec   dram.Spec
	table  *mapping.Table
	sample int64
}

// relayoutReplay keys one sample-window replay: the spec, huge page and
// chunk fix the table, and the resolved MapIDs its two mappings.
type relayoutReplay struct {
	spec     dram.Spec
	hugePage int
	chunk    mapping.ChunkConfig
	src, dst mapping.MapID
	sample   int64
}

// NewEngine builds a re-layout engine. sampleBytes <= 0 selects
// DefaultSampleBytes.
func NewEngine(spec dram.Spec, table *mapping.Table, sampleBytes int64) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if table.Memory().Geometry != spec.Geometry {
		return nil, fmt.Errorf("relayout: table geometry does not match spec %q", spec.Name)
	}
	if sampleBytes <= 0 {
		sampleBytes = DefaultSampleBytes
	}
	if sampleBytes > spec.Geometry.CapacityBytes() {
		sampleBytes = spec.Geometry.CapacityBytes()
	}
	return &Engine{
		spec:   spec,
		table:  table,
		sample: sampleBytes,
	}, nil
}

func (e *Engine) replayKey(src, dst mapping.MapID) relayoutReplay {
	return relayoutReplay{e.spec, e.table.Memory().HugePageBytes, e.table.Chunk(), e.table.Resolve(src), e.table.Resolve(dst), e.sample}
}

// measure replays a sample window: every burst of the window is read via
// the src mapping and rewritten via the dst mapping. The destination
// region is modeled at a distinct physical range (the transient
// conventional copy of the on-demand re-layout scheme).
func (e *Engine) measure(src, dst mapping.MapID) (Result, error) {
	g := e.spec.Geometry
	tb := int64(g.TransferBytes)
	n := e.sample / tb
	srcMap := e.table.Lookup(src)
	dstMap := e.table.Lookup(dst)
	// Destination buffer sits in a different physical region so source
	// reads and destination writes do not alias. The stream is generated
	// on demand — read then write per burst — so the window never
	// materializes as a request slice.
	dstBase := uint64(e.spec.Geometry.CapacityBytes() / 2)
	var i int64
	write := false
	sr, err := dram.MeasureStreamKeyed(e.replayKey(src, dst), e.spec, func(r *dram.Request) bool {
		if i >= n {
			return false
		}
		pa := uint64(i) * uint64(tb)
		if !write {
			ra, _ := srcMap.Translate(pa)
			*r = dram.Request{Addr: ra, Write: false}
		} else {
			wa, _ := dstMap.Translate(dstBase + pa)
			*r = dram.Request{Addr: wa, Write: true}
			i++
		}
		write = !write
		return true
	}, 0)
	if err != nil {
		return Result{}, err
	}
	return Result{SimulatedBytes: e.sample, EffectiveGBs: sr.BandwidthGBs, RowHitRate: sr.RowHitRate}, nil
}

// Cost returns the modeled re-layout time for `bytes` of tensor data moved
// from the src mapping to the dst mapping: 2*bytes of traffic at the
// achieved read+write bandwidth of the pattern.
func (e *Engine) Cost(src, dst mapping.MapID, bytes int64) (Result, error) {
	if bytes < 0 {
		return Result{}, fmt.Errorf("relayout: negative size %d", bytes)
	}
	base, err := e.measure(src, dst)
	if err != nil {
		return Result{}, err
	}
	res := base
	res.Bytes = bytes
	if base.EffectiveGBs > 0 {
		res.Seconds = 2 * float64(bytes) / (base.EffectiveGBs * 1e9)
	}
	return res, nil
}
