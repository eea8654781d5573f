// Package energy estimates DRAM and PIM energy for the compared designs.
// The paper evaluates latency only; energy is the natural companion
// question for edge devices, and near-bank PIM's headline energy win is
// that weight bits never cross the chip interface. The model uses
// LPDDR5-class per-operation energies:
//
//   - row activation+precharge energy per ACT,
//   - column access energy per burst (array read/write),
//   - interface (I/O + on-die termination) energy per burst that crosses
//     the channel — the component PIM avoids for weights,
//   - MAC energy per PIM multiply-accumulate burst.
//
// Values are pJ-scale constants from public LPDDR5 power studies; like
// the timing model, they are meant to reproduce relationships, not
// datasheet-exact numbers.
package energy

import "facil/internal/dram"

// Params holds per-operation energies in picojoules.
type Params struct {
	// ACTpJ is row activate + precharge energy (per bank activation).
	ACTpJ float64
	// ArrayReadPJPerByte is the cell-array access energy per byte.
	ArrayReadPJPerByte float64
	// ArrayWritePJPerByte is the array write energy per byte.
	ArrayWritePJPerByte float64
	// IOPJPerByte is the interface energy per byte crossing the channel
	// (I/O drivers, ODT, PHY) — paid by SoC accesses, not by PIM MACs.
	IOPJPerByte float64
	// MACPJPerByte is the PIM compute energy per weight byte MACed.
	MACPJPerByte float64
	// BackgroundMW is standby/refresh power for the whole device in mW.
	BackgroundMW float64
}

// DefaultLPDDR5 returns LPDDR5-class constants (~2 pJ/bit array access,
// ~4 pJ/bit interface, ~1 nJ per activate).
func DefaultLPDDR5() Params {
	return Params{
		ACTpJ:               1000,
		ArrayReadPJPerByte:  16,
		ArrayWritePJPerByte: 18,
		IOPJPerByte:         32,
		MACPJPerByte:        6,
		BackgroundMW:        80,
	}
}

// Breakdown is an energy account in joules.
type Breakdown struct {
	Activate   float64
	Array      float64
	Interface  float64
	MAC        float64
	Background float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Activate + b.Array + b.Interface + b.MAC + b.Background
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Activate += o.Activate
	b.Array += o.Array
	b.Interface += o.Interface
	b.MAC += o.MAC
	b.Background += o.Background
}

// SoCTraffic returns the energy of `bytes` of SoC-side DRAM traffic with
// the given write fraction and row hit rate: every byte pays array and
// interface energy; misses pay activations (one per rowBytes on average
// at hitRate locality).
func SoCTraffic(p Params, spec dram.Spec, bytes int64, writeFrac, rowHitRate float64) Breakdown {
	var b Breakdown
	fb := float64(bytes)
	b.Array = (fb*(1-writeFrac)*p.ArrayReadPJPerByte + fb*writeFrac*p.ArrayWritePJPerByte) * 1e-12
	b.Interface = fb * p.IOPJPerByte * 1e-12
	// Activations: each opened row serves rowBytes * 1/(1-hitRate)...
	// model: miss fraction of bursts trigger an ACT.
	bursts := fb / float64(spec.Geometry.TransferBytes)
	b.Activate = bursts * (1 - rowHitRate) * p.ACTpJ * 1e-12
	return b
}

// PIMGEMV returns the energy of one PIM GEMV pass over `weightBytes` of
// weights with `activations` all-bank row activations (each activating
// every bank of a rank), plus the input/output bytes that do cross the
// interface.
func PIMGEMV(p Params, spec dram.Spec, weightBytes int64, allBankACTs int64, ioBytes int64) Breakdown {
	var b Breakdown
	fb := float64(weightBytes)
	b.Array = fb * p.ArrayReadPJPerByte * 1e-12
	b.MAC = fb * p.MACPJPerByte * 1e-12
	// All-bank ACT opens banksPerRank rows in every rank of every
	// channel participating; allBankACTs counts per-rank passes across
	// the whole device.
	b.Activate = float64(allBankACTs) * float64(spec.Geometry.BanksPerRank) * p.ACTpJ * 1e-12
	fio := float64(ioBytes)
	b.Interface = fio * p.IOPJPerByte * 1e-12
	b.Array += fio * p.ArrayWritePJPerByte * 1e-12 // buffer fills
	return b
}

// Background returns standby energy for a duration.
func Background(p Params, seconds float64) Breakdown {
	return Breakdown{Background: p.BackgroundMW * 1e-3 * seconds}
}
