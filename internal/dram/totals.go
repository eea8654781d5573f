package dram

import "sync/atomic"

// Totals holds process-wide simulation counters aggregated across every
// concurrently-running DRAM simulation. Unlike ChannelStats (single-owner,
// merge-on-join), these counters are updated from many goroutines at
// once, so they are atomic: one Add per finished stream replay, loads at
// any time. They exist for observability — e.g. the facilsim -v footer —
// and never feed back into simulated timing.
type Totals struct {
	streams  atomic.Int64
	requests atomic.Int64
	cycles   atomic.Int64
	commands atomic.Int64
	visited  atomic.Int64
}

// Streams returns the number of stream replays completed.
func (t *Totals) Streams() int64 { return t.streams.Load() }

// Requests returns the total read+write requests simulated.
func (t *Totals) Requests() int64 { return t.requests.Load() }

// Cycles returns the total burst-clock cycles simulated.
func (t *Totals) Cycles() int64 { return t.cycles.Load() }

// Commands returns the total commands the schedulers issued.
func (t *Totals) Commands() int64 { return t.commands.Load() }

// Visited returns the total queue entries the schedulers' command picks
// looked at; Visited/Commands is the scheduler's work per command.
func (t *Totals) Visited() int64 { return t.visited.Load() }

// record accumulates one finished replay on ctl.
func (t *Totals) record(ctl *Controller, s ChannelStats, cycles int64) {
	t.streams.Add(1)
	t.requests.Add(s.Reads + s.Writes)
	t.cycles.Add(cycles)
	var commands, visited int64
	for _, c := range ctl.channels {
		commands += c.commands
		visited += c.visited
	}
	t.commands.Add(commands)
	t.visited.Add(visited)
}

// Global aggregates every stream replay in the process, however many
// sweeps are running.
var Global Totals
