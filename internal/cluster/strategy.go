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

// DeviceView is the router's frozen per-device signal set offered to a
// strategy: ledger state updated at arrival granularity plus telemetry
// refreshed at the last barrier. Strategies read views; only the router
// writes them.
type DeviceView struct {
	// Eligible is false while the device's health breaker blocks it;
	// no strategy may pick an ineligible device.
	Eligible bool
	// InFlight is the router's ledger count of queries assigned to the
	// device and not yet observed terminal — assignment-time knowledge,
	// ahead of the device's own barrier-frozen counters.
	InFlight int
	// TTFTEWMA is the exponentially-weighted moving average of the
	// device's observed TTFT samples (0 until the first observation).
	TTFTEWMA float64
}

// QueryInfo describes one arrival being routed.
type QueryInfo struct {
	// ID is the cluster-wide arrival index.
	ID int
	// Arrival is the arrival time on the cluster clock.
	Arrival float64
	// Prefill and Decode are the token lengths.
	Prefill, Decode int
	// Class is the priority tier.
	Class Class
}

// Strategy picks the device for each arrival. Implementations must be
// deterministic functions of (their own state, views, q): the router
// calls Pick serially in arrival order, so any internal state (e.g. the
// round-robin cursor) evolves deterministically too. For the built-in
// strategies other than round-robin the router reads the same choice
// from a tournament tree instead of calling Pick (DESIGN.md §13).
type Strategy interface {
	// Pick returns the index of the chosen device, or -1 to shed the
	// arrival. Picking an ineligible device is a contract violation.
	Pick(views []DeviceView, q QueryInfo) int
}

// NewStrategy builds a fresh strategy instance (cursor state zeroed)
// for one run.
func NewStrategy(k StrategyKind) Strategy {
	switch k {
	case LeastLoaded:
		return leastLoaded{}
	case LatencyWeighted:
		return latencyWeighted{}
	case SLOTiered:
		return sloTiered{}
	default:
		return &roundRobin{}
	}
}

// roundRobin cycles a cursor over eligible devices.
type roundRobin struct {
	next int
}

// Pick returns the next eligible device at or after the cursor.
func (r *roundRobin) Pick(views []DeviceView, _ QueryInfo) int {
	n := len(views)
	for off := 0; off < n; off++ {
		i := (r.next + off) % n
		if views[i].Eligible {
			r.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// leastLoaded picks the shallowest eligible device.
type leastLoaded struct{}

// Pick returns the eligible device with minimum in-flight count
// (lowest index on ties), or -1 when none is eligible.
func (leastLoaded) Pick(views []DeviceView, _ QueryInfo) int {
	best, depth := -1, 0
	for i := range views {
		if !views[i].Eligible {
			continue
		}
		if best < 0 || views[i].InFlight < depth {
			best, depth = i, views[i].InFlight
		}
	}
	return best
}

// latencyWeighted minimizes an expected-wait proxy.
type latencyWeighted struct{}

// Pick returns the eligible device minimizing TTFTEWMA × (InFlight+1),
// lowest index on ties; unobserved devices score 0 and win first.
func (latencyWeighted) Pick(views []DeviceView, _ QueryInfo) int {
	best := -1
	var score float64
	for i := range views {
		if !views[i].Eligible {
			continue
		}
		s := views[i].TTFTEWMA * float64(views[i].InFlight+1)
		if best < 0 || s < score {
			best, score = i, s
		}
	}
	return best
}

// sloTiered is least-loaded routing behind classful admission gates
// (DefaultShedStandard, DefaultShedBatch).
type sloTiered struct{}

// Pick admits the arrival against its class's depth threshold — judged
// on the least-loaded eligible device, so a single hot device cannot
// shed traffic the rest of the fleet could take — then routes
// least-loaded.
func (s sloTiered) Pick(views []DeviceView, q QueryInfo) int {
	best := leastLoaded{}.Pick(views, q)
	if best < 0 || !s.admit(views[best], q) {
		return -1
	}
	return best
}

// ranker is a strategy whose Pick is the eligible device of least
// score, lowest index on ties, followed by an admission gate on that
// device. The router keeps such devices in a tournament tree (see
// routeViews) and reads its root instead of calling Pick.
type ranker interface {
	score(v DeviceView) float64
	admit(best DeviceView, q QueryInfo) bool
}

func (leastLoaded) score(v DeviceView) float64 { return float64(v.InFlight) }

func (leastLoaded) admit(DeviceView, QueryInfo) bool { return true }

func (latencyWeighted) score(v DeviceView) float64 {
	return v.TTFTEWMA * float64(v.InFlight+1)
}

func (latencyWeighted) admit(DeviceView, QueryInfo) bool { return true }

func (sloTiered) score(v DeviceView) float64 { return float64(v.InFlight) }

// admit applies the class's shed threshold to the least-loaded
// eligible device's depth.
func (sloTiered) admit(best DeviceView, q QueryInfo) bool {
	switch q.Class {
	case Standard:
		return best.InFlight < DefaultShedStandard
	case Batch:
		return best.InFlight < DefaultShedBatch
	}
	return true
}
