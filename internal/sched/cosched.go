// Package sched models the co-scheduling of PIM and non-PIM memory
// requests on shared channels — the integration challenge the paper's
// Discussion (Sec. V-C) leaves open. It implements three arbitration
// policies over the cycle-level channel simulator:
//
//   - PIMFirst: the lock-step PIM schedule never waits; SoC requests fill
//     the remaining command/data-bus slots. Single row buffer: every PIM
//     pass evicts the SoC's open rows and vice versa.
//   - SoCFirst: ready SoC requests drain before each PIM pass begins.
//   - DualRowBuffer: the NeuPIMs-style alternative the paper cites — PIM
//     operations use a second per-bank row buffer, eliminating row-buffer
//     conflicts between the two classes while still sharing command slots
//     and the MAC cadence.
package sched

import (
	"fmt"
	"math/rand"

	"facil/internal/dram"
	"facil/internal/stats"
)

// Policy selects the arbitration scheme.
type Policy int

// The co-scheduling policies.
const (
	PIMFirst Policy = iota
	SoCFirst
	DualRowBuffer
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PIMFirst:
		return "PIM-first (shared row buffer)"
	case SoCFirst:
		return "SoC-first (shared row buffer)"
	case DualRowBuffer:
		return "dual row buffer (NeuPIMs-style)"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists all schemes.
func Policies() []Policy { return []Policy{PIMFirst, SoCFirst, DualRowBuffer} }

// Workload describes one co-scheduling scenario on a single channel.
type Workload struct {
	// PIMPasses is the number of all-bank row passes (ACT + one MAC per
	// row burst + PRE on each rank) the PIM job executes.
	PIMPasses int
	// SoCRequests is the number of background SoC bursts.
	SoCRequests int
	// SoCRate is the SoC arrival rate in requests per burst cycle
	// (e.g. 0.25 = one request every 4 cycles).
	SoCRate float64
	// MACInterval is the PIM MAC cadence in burst cycles.
	MACInterval int
	// Seed drives the SoC address stream.
	Seed int64
}

// DefaultWorkload returns a medium-contention scenario.
func DefaultWorkload() Workload {
	return Workload{
		PIMPasses:   64,
		SoCRequests: 4096,
		SoCRate:     0.25,
		MACInterval: 6,
		Seed:        1,
	}
}

// Result summarizes one co-scheduled run.
type Result struct {
	Policy Policy
	// PIMCycles is the completion cycle of the PIM job.
	PIMCycles int64
	// PIMSlowdown is PIMCycles / isolated PIM cycles.
	PIMSlowdown float64
	// SoCMeanLatency and SoCP99Latency are request latencies in cycles
	// (Done - Arrival).
	SoCMeanLatency float64
	SoCP99Latency  float64
	// SoCSlowdown is mean latency / isolated mean latency.
	SoCSlowdown float64
	// SoCFinished counts completed SoC requests.
	SoCFinished int
}

// socStream builds the background SoC request stream: random addresses
// (conventional-mapping locality: sequential bursts with occasional
// jumps) paced at the requested rate.
func socStream(spec dram.Spec, w Workload) []dram.Request {
	rng := rand.New(rand.NewSource(w.Seed))
	g := spec.Geometry
	reqs := make([]dram.Request, 0, w.SoCRequests)
	row, bank, col := rng.Intn(g.Rows), rng.Intn(g.BanksPerRank), 0
	var cycle float64
	step := 1 / w.SoCRate
	for i := 0; i < w.SoCRequests; i++ {
		if rng.Float64() < 0.05 { // jump to a new row
			row, bank, col = rng.Intn(g.Rows), rng.Intn(g.BanksPerRank), rng.Intn(g.ColumnsPerRow())
		}
		reqs = append(reqs, dram.Request{
			Addr: dram.Addr{
				Rank:   i % g.RanksPerChannel,
				Bank:   bank,
				Row:    row,
				Column: col,
			},
			Write:   rng.Intn(4) == 0,
			Arrival: int64(cycle),
		})
		col++
		if col >= g.ColumnsPerRow() {
			col = 0
			bank = rng.Intn(g.BanksPerRank)
		}
		cycle += step
	}
	return reqs
}

// runPIMPass executes one all-bank row pass on every rank.
func runPIMPass(ch *dram.Channel, spec dram.Spec, row, macInterval int, interleave func()) error {
	g := spec.Geometry
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		// Single-row-buffer mode requires all banks precharged; SoC
		// rows are evicted here (the contention cost).
		if _, err := ch.AllBankPRE(rk); err != nil {
			return err
		}
		if _, err := ch.AllBankACT(rk, row%g.Rows); err != nil {
			return err
		}
	}
	for b := 0; b < g.ColumnsPerRow(); b++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			if _, err := ch.AllBankMAC(rk, b, macInterval); err != nil {
				return err
			}
		}
		interleave()
	}
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		if _, err := ch.AllBankPRE(rk); err != nil {
			return err
		}
	}
	return nil
}

// isolatedPIMCycles times the PIM job alone.
func isolatedPIMCycles(spec dram.Spec, w Workload) (int64, error) {
	ch := dram.NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	for p := 0; p < w.PIMPasses; p++ {
		if err := runPIMPass(ch, spec, p, w.MACInterval, func() {}); err != nil {
			return 0, err
		}
	}
	return ch.Now(), nil
}

// isolatedSoCLatency times the SoC stream alone.
func isolatedSoCLatency(spec dram.Spec, w Workload) (mean float64, err error) {
	ch := dram.NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	reqs := socStream(spec, w)
	for i := range reqs {
		if err := ch.Enqueue(&reqs[i]); err != nil {
			return 0, err
		}
	}
	if _, err := ch.Drain(); err != nil {
		return 0, err
	}
	lat := make([]float64, len(reqs))
	for i := range reqs {
		lat[i] = float64(reqs[i].Done - reqs[i].Arrival)
	}
	return stats.Mean(lat), nil
}

// Cosimulate runs the PIM job and the SoC stream concurrently on one
// channel under a policy and reports interference metrics.
func Cosimulate(spec dram.Spec, w Workload, policy Policy) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if w.PIMPasses <= 0 || w.SoCRequests <= 0 || w.SoCRate <= 0 {
		return Result{}, fmt.Errorf("sched: workload fields must be positive: %+v", w)
	}
	basePIM, err := isolatedPIMCycles(spec, w)
	if err != nil {
		return Result{}, err
	}
	baseSoC, err := isolatedSoCLatency(spec, w)
	if err != nil {
		return Result{}, err
	}

	ch := dram.NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	if policy == DualRowBuffer {
		ch.SetDualRowBuffer(true)
	}
	reqs := socStream(spec, w)
	for i := range reqs {
		if err := ch.Enqueue(&reqs[i]); err != nil {
			return Result{}, err
		}
	}
	drainReady := func() {
		for ch.HasReady() {
			ch.StepOne()
		}
	}
	// With a single (shared) row buffer, SoC requests cannot interleave
	// inside a PIM pass: they would evict the PIM row mid-stream. They
	// run between passes (SoCFirst) or only after the job (PIMFirst).
	// Dual row buffers remove the hazard, so SoC requests fill the free
	// command/data slots between MAC commands.
	interleave := func() {}
	if policy == DualRowBuffer {
		interleave = func() {
			if ch.HasReady() {
				ch.StepOne()
			}
		}
	}
	var pimDone int64
	for p := 0; p < w.PIMPasses; p++ {
		if policy == SoCFirst {
			drainReady()
		}
		if err := runPIMPass(ch, spec, p, w.MACInterval, interleave); err != nil {
			return Result{}, err
		}
		pimDone = ch.Now()
	}
	// Finish remaining SoC traffic.
	if _, err := ch.Drain(); err != nil {
		return Result{}, err
	}

	res := Result{
		Policy:      policy,
		PIMCycles:   pimDone,
		PIMSlowdown: float64(pimDone) / float64(basePIM),
	}
	lat := make([]float64, 0, len(reqs))
	for i := range reqs {
		if reqs[i].Done > 0 {
			lat = append(lat, float64(reqs[i].Done-reqs[i].Arrival))
			res.SoCFinished++
		}
	}
	res.SoCMeanLatency = stats.Mean(lat)
	res.SoCP99Latency = stats.Percentile(lat, 99)
	if baseSoC > 0 {
		res.SoCSlowdown = res.SoCMeanLatency / baseSoC
	}
	return res, nil
}
