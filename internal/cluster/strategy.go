package cluster

import "fmt"

// Class is a query's priority tier. The SLOTiered strategy admits
// Interactive traffic unconditionally and sheds Standard, then Batch,
// as the fleet's least-loaded device deepens; the other strategies
// route all classes identically (the class still labels shed counts).
type Class int

const (
	// Interactive queries are user-facing turns: never shed while any
	// device is eligible.
	Interactive Class = iota
	// Standard queries are ordinary background requests.
	Standard
	// Batch queries are deferrable bulk work: first to shed.
	Batch
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// String names the priority class.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Standard:
		return "standard"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// StrategyKind identifies a balancing strategy.
type StrategyKind int

const (
	// RoundRobin cycles through eligible devices in index order —
	// the oblivious baseline.
	RoundRobin StrategyKind = iota
	// LeastLoaded routes to the eligible device with the fewest
	// in-flight queries (router's ledger view), lowest index on ties.
	LeastLoaded
	// LatencyWeighted routes to the eligible device minimizing
	// observed-TTFT-EWMA × (in-flight + 1) — an expected-wait proxy
	// that sends work to fast and idle devices first. Devices with no
	// observation yet score zero, so every device gets probed.
	LatencyWeighted
	// SLOTiered is LeastLoaded plus classful admission: when even the
	// least-loaded eligible device is deeper than the Standard (or
	// Batch) shed threshold, arrivals of that class are shed at the
	// router to protect Interactive latency.
	SLOTiered
)

// String names the strategy.
func (k StrategyKind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case LatencyWeighted:
		return "latency-weighted"
	case SLOTiered:
		return "slo-tiered"
	default:
		return fmt.Sprintf("strategy(%d)", int(k))
	}
}

// ParseStrategy resolves a command-line strategy name.
func ParseStrategy(s string) (StrategyKind, error) {
	for _, k := range Strategies() {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown strategy %q (round-robin, least-loaded, latency-weighted, slo-tiered)", s)
}

// Strategies lists the balancing strategies in presentation order.
func Strategies() []StrategyKind {
	return []StrategyKind{RoundRobin, LeastLoaded, LatencyWeighted, SLOTiered}
}

// score ranks a device with inflight queries in the router's ledger and
// a TTFT EWMA of ewma: LatencyWeighted's expected-wait proxy
// ewma × (inflight+1), where an unobserved device scores 0 and wins
// first, or the in-flight count for the others. The router picks the
// eligible device of least score, lowest index on ties, for arrivals
// (round-robin aside) and, under LeastLoaded's or LatencyWeighted's
// score, for steal destinations.
func (k StrategyKind) score(inflight int, ewma float64) float64 {
	if k == LatencyWeighted {
		return ewma * float64(inflight+1)
	}
	return float64(inflight)
}

// admits reports whether an arrival of class c may be routed to the
// picked device at ledger depth depth. SLOTiered applies the class's
// shed threshold to the least-loaded eligible device, so a single hot
// device cannot shed traffic the rest of the fleet could take; every
// other strategy admits all.
func (k StrategyKind) admits(depth int, c Class) bool {
	if k != SLOTiered {
		return true
	}
	switch c {
	case Standard:
		return depth < DefaultShedStandard
	case Batch:
		return depth < DefaultShedBatch
	}
	return true
}
