package serve

import "fmt"

// Policy selects the degradation response when a query's decode cannot
// run on its replica's PIM lane (lane failure or open circuit breaker)
// or when its MapID arrives corrupted at the MC frontend.
type Policy int

const (
	// PolicyNone is the no-policy tier: a query hitting a dead PIM
	// lane (or a silently mis-translated MapID) fails terminally. This
	// is what a fault-unaware serving stack does.
	PolicyNone Policy = iota
	// PolicySoCFallback degrades decode to the SoC-only path — the
	// paper's own baseline becomes the fallback tier. Decode quanta
	// run on the replica's SoC lane (contending with prefills, prefill
	// first) at SoC-only per-step latency until the PIM lane is usable
	// again.
	PolicySoCFallback
	// PolicyFailover migrates the decode to another replica whose PIM
	// lane is live and idle with no decode backlog, paying
	// DefaultFailoverPenalty (the KV-cache transfer) before its next quantum;
	// with no spare capacity anywhere it degrades to the SoC fallback
	// path. Failover therefore never does worse than PolicySoCFallback:
	// it only replaces SoC-speed decode with idle PIM-speed decode.
	PolicyFailover
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicySoCFallback:
		return "soc-fallback"
	case PolicyFailover:
		return "failover"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy resolves a command-line policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown policy %q (none, soc-fallback, failover)", s)
}

// Policies lists the degradation policies in escalation order.
func Policies() []Policy { return []Policy{PolicyNone, PolicySoCFallback, PolicyFailover} }

// Breaker states: closed admits dispatches, open rejects them until the
// cooldown elapses, and the first dispatch after the cooldown runs as a
// half-open probe.
const (
	brkClosed = iota
	brkOpen
	brkHalfOpen
)

// Breaker is the circuit breaker shared by every layer of the serving
// stack: the in-device PIM-lane breaker (one per replica, driven by
// failed decode dispatches) and the cluster router's per-device health
// breaker (one per fleet member, driven by barrier-observed failures)
// run the same state machine. Threshold consecutive Failure calls open
// it; while open, Admit refuses until the cooldown elapses, then the
// next Admit half-opens it and the dispatch probes the resource —
// Success closes it, Failure reopens it immediately.
//
// The zero value is a closed breaker, ready for use. Threshold and
// cooldown are call parameters rather than fields so a fleet of
// breakers costs three words each and reconfiguring is free.
type Breaker struct {
	state    int
	consec   int
	openedAt float64
}

// Blocked reports whether the breaker rejects dispatches at time now,
// without mutating state — the read-only form of Admit, used to filter
// candidates (failover targets, routable devices) before committing to
// one.
func (b *Breaker) Blocked(now, cooldown float64) bool {
	return b.state == brkOpen && now-b.openedAt < cooldown
}

// Admit decides whether a dispatch may proceed at time now: an open
// breaker inside its cooldown refuses; past the cooldown it transitions
// to half-open and admits the dispatch as a probe.
func (b *Breaker) Admit(now, cooldown float64) bool {
	if b.state == brkOpen {
		if now-b.openedAt < cooldown {
			return false
		}
		b.state = brkHalfOpen
	}
	return true
}

// Failure records one failed dispatch at time now and reports whether
// this call opened the breaker: a half-open probe reopens immediately,
// a closed breaker opens at threshold consecutive failures.
func (b *Breaker) Failure(now float64, threshold int) bool {
	b.consec++
	if b.state == brkHalfOpen || b.consec >= threshold {
		b.state = brkOpen
		b.openedAt = now
		return true
	}
	return false
}

// Success records one successful dispatch, closing the breaker and
// zeroing the consecutive-failure count; it reports whether the call
// closed a half-open probe (the recovery transition worth tracing).
func (b *Breaker) Success() bool {
	probed := b.state == brkHalfOpen
	b.state = brkClosed
	b.consec = 0
	return probed
}

// Probing reports whether the breaker is half-open: a probe dispatch
// was admitted after the cooldown and its outcome has not been recorded
// yet. Hosts that meter recovery (the cluster router's probation quota)
// use it to cap how much traffic a recovering resource earns before the
// probe's verdict is in.
func (b *Breaker) Probing() bool { return b.state == brkHalfOpen }
