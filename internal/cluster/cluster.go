// Package cluster is the fleet layer of the serving stack: a router
// that owns many heterogeneous device replicas — each an independent
// host-fed serve.Sim built from its own soc platform and PIM
// configuration — and dispatches an arrival stream across them under
// one of four balancing strategies (StrategyKind).
//
// The router is the only component that sees the whole fleet. It
// observes devices only at telemetry barriers (every
// Config.SyncInterval seconds of virtual time): at each one it advances
// every device to the barrier and settles its ledger entry, in device
// order on one goroutine, then routes the next interval's arrivals on
// those signals plus its own arrival-ordered ledger. A run is therefore
// a deterministic function of its seeds (DESIGN.md §13).
//
// Per-device health feeds the same serve.Breaker state machine the
// in-device PIM-lane breaker uses: barrier-observed query failures
// strike a device's breaker, an open breaker removes the device from
// routing and steal candidates until its cooldown, and the first
// routed query after the cooldown is the half-open probe.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"facil/internal/engine"
	"facil/internal/serve"
	"facil/internal/soc"
	"facil/internal/stats"
	"facil/internal/workload"
)

// DeviceClass is one homogeneous slice of the fleet: Count devices of
// one soc platform sharing a PIM configuration (and therefore one
// engine.System — systems are goroutine-safe and read-only at serve
// time).
type DeviceClass struct {
	// Platform is the device hardware (one of the four soc platforms).
	Platform soc.Platform
	// Count is how many devices of this class the fleet fields.
	Count int
	// MACIntervalCycles overrides the AiM PIM MAC issue interval for
	// this class (0 keeps the platform default) — the knob that models
	// a weaker or binned PIM stack without changing DRAM geometry.
	MACIntervalCycles int
}

// Label names the class for fleet specs and per-class reporting.
func (c DeviceClass) Label() string {
	short := "?"
	for tok, p := range fleetPlatforms {
		if p.Name == c.Platform.Name {
			short = tok
			break
		}
	}
	if c.MACIntervalCycles > 0 {
		return fmt.Sprintf("%s/mac%d", short, c.MACIntervalCycles)
	}
	return short
}

// SystemBuilder constructs the engine.System one device class runs on;
// the caller owns model selection and engine configuration (internal/exp
// supplies one built on exp.PlatformModel), keeping this package free of
// an exp dependency.
type SystemBuilder func(DeviceClass) (*engine.System, error)

// Fleet is an immutable device-class roster with the per-class systems
// already built; one Fleet serves any number of Run calls concurrently.
type Fleet struct {
	classes []DeviceClass
	systems []*engine.System
}

// NewFleet validates the class roster and builds (or reuses) one
// engine.System per distinct (platform, PIM config) pair, in roster
// order, so construction is deterministic.
func NewFleet(classes []DeviceClass, build SystemBuilder) (*Fleet, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one device class")
	}
	fl := &Fleet{
		classes: append([]DeviceClass(nil), classes...),
		systems: make([]*engine.System, len(classes)),
	}
	type key struct {
		name string
		mac  int
	}
	shared := make(map[key]*engine.System)
	for i, c := range fl.classes {
		if c.Count <= 0 {
			return nil, fmt.Errorf("cluster: class %d (%s) has non-positive count %d", i, c.Platform.Name, c.Count)
		}
		if c.MACIntervalCycles < 0 {
			return nil, fmt.Errorf("cluster: class %d (%s) has negative MACIntervalCycles", i, c.Platform.Name)
		}
		k := key{c.Platform.Name, c.MACIntervalCycles}
		if s, ok := shared[k]; ok {
			fl.systems[i] = s
			continue
		}
		s, err := build(c)
		if err != nil {
			return nil, fmt.Errorf("cluster: building system for class %d (%s): %w", i, c.Platform.Name, err)
		}
		if s == nil {
			return nil, fmt.Errorf("cluster: nil system for class %d (%s)", i, c.Platform.Name)
		}
		shared[k] = s
		fl.systems[i] = s
	}
	return fl, nil
}

// Devices is the total device count across all classes.
func (f *Fleet) Devices() int {
	n := 0
	for _, c := range f.classes {
		n += c.Count
	}
	return n
}

// fleetPlatforms maps fleet-spec tokens to platforms.
var fleetPlatforms = map[string]soc.Platform{
	"jetson":  soc.Jetson,
	"macbook": soc.Macbook,
	"ideapad": soc.IdeaPad,
	"iphone":  soc.IPhone,
}

// ParseFleet parses a fleet-mix spec: comma-separated
// platform[/macN]:count tokens, e.g. "jetson:26,ideapad/mac8:26".
// Platforms are the short names jetson, macbook, ideapad, iphone; the
// optional /macN suffix sets the class's MACIntervalCycles override.
func ParseFleet(spec string) ([]DeviceClass, error) {
	var classes []DeviceClass
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, countStr, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: fleet token %q wants platform:count", tok)
		}
		mac := 0
		if base, macStr, has := strings.Cut(name, "/mac"); has {
			v, err := strconv.Atoi(macStr)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("cluster: bad MAC interval in fleet token %q", tok)
			}
			name, mac = base, v
		}
		p, ok := fleetPlatforms[name]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown platform %q in fleet spec (jetson, macbook, ideapad, iphone)", name)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("cluster: bad device count in fleet token %q", tok)
		}
		classes = append(classes, DeviceClass{Platform: p, Count: count, MACIntervalCycles: mac})
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("cluster: empty fleet spec %q", spec)
	}
	return classes, nil
}

// ScaleFleet rescales a class roster to total devices, preserving the
// mix ratio; every class keeps at least one device and rounding
// remainders go to the largest classes first (deterministically).
func ScaleFleet(classes []DeviceClass, total int) []DeviceClass {
	if total <= 0 || len(classes) == 0 {
		return classes
	}
	if total < len(classes) {
		total = len(classes)
	}
	sum := 0
	for _, c := range classes {
		sum += c.Count
	}
	out := append([]DeviceClass(nil), classes...)
	assigned := 0
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, len(out))
	for i := range out {
		exact := float64(out[i].Count) * float64(total) / float64(sum)
		n := int(exact)
		if n < 1 {
			n = 1
		}
		out[i].Count = n
		assigned += n
		fracs[i] = frac{idx: i, rem: exact - float64(n)}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for i := 0; assigned < total; i = (i + 1) % len(fracs) {
		out[fracs[i].idx].Count++
		assigned++
	}
	for assigned > total {
		shrunk := false
		for i := len(fracs) - 1; i >= 0 && assigned > total; i-- {
			if out[fracs[i].idx].Count > 1 {
				out[fracs[i].idx].Count--
				assigned--
				shrunk = true
			}
		}
		if !shrunk {
			break
		}
	}
	return out
}

// DefaultSyncInterval is the telemetry-barrier period in virtual
// seconds when Config leaves SyncInterval 0 — the cadence at which the
// router advances its devices and refreshes their signals.
const DefaultSyncInterval = 5.0

// Default per-device queue-depth admission thresholds for the
// SLOTiered strategy's Standard and Batch priority classes.
const (
	DefaultShedStandard = 6
	DefaultShedBatch    = 2
)

// Config describes one cluster run over a Fleet.
type Config struct {
	// Strategy selects the balancing strategy.
	Strategy StrategyKind
	// ArrivalRate is the cluster-wide offered load in queries/second
	// (exponential inter-arrival gaps).
	ArrivalRate float64
	// Queries is the total query count routed (or shed) by the run.
	Queries int
	// Workload samples the (prefill, decode) token lengths.
	Workload workload.Spec
	// Seed drives arrivals, lengths and priority classes; FaultSeed
	// (with FaultMTBF) drives the per-device fault streams.
	Seed int64
	// SyncInterval is the telemetry-barrier period in virtual seconds
	// (0 = DefaultSyncInterval). Shorter intervals mean fresher routing
	// signals and more merge overhead; the interval does not affect
	// determinism, only fidelity.
	SyncInterval float64
	// QueueCap bounds each device's in-system query count; arrivals
	// routed to a full device are rejected by the device (0 =
	// unbounded).
	QueueCap int
	// DeadlineTTLT is the per-query SLO on arrival-to-last-token
	// (0 disables it; goodput == throughput).
	DeadlineTTLT float64
	// Policy is the in-device degradation policy for PIM-lane loss.
	Policy serve.Policy
	// BreakerThreshold opens a device's router-side health breaker
	// after that many consecutive barrier-observed query failures
	// (0 disables router health breakers).
	BreakerThreshold int
	// BreakerCooldown is the open-state dwell in seconds before a
	// half-open probe (0 = serve.DefaultBreakerCooldown).
	BreakerCooldown float64
	// FaultMTBF, with FaultMTTR, arms per-device PIM-lane fault streams
	// on the FaultFraction of devices selected by FaultSeed (MTBF 0 =
	// no faults anywhere).
	FaultMTBF     float64
	FaultMTTR     float64
	FaultFraction float64
	FaultSeed     int64
	// DeviceBreakerThreshold arms each faulty device's own in-sim
	// PIM-lane breaker (0 disables it; router health breakers are
	// independent).
	DeviceBreakerThreshold int
	// Steal enables cross-device query migration: a re-route phase
	// after each barrier's settle retracts queued work from
	// devices whose health breaker is open (admission-queued first,
	// then prefilled queries) or whose in-system depth reaches
	// StealThreshold (admission-queued only) and re-injects it on the
	// least-loaded eligible device with room (see LatencySteal for the
	// latency-aware destination choice). Prefilled queries are
	// charged DefaultMigrationPenalty at the destination — the KV-cache
	// transfer and re-layout into the adopting device's mapping —
	// while unstarted queries move free.
	Steal bool
	// StealThreshold is the in-system depth at and above which a
	// healthy device's admission queue is stolen from (0 disables
	// depth-based stealing; breaker-open evacuation still runs
	// whenever Steal is set and BreakerThreshold > 0).
	StealThreshold int
	// LatencySteal switches the steal destination choice from
	// least-loaded to the expected-wait proxy the LatencyWeighted
	// strategy routes by — observed-TTFT-EWMA × (in-flight + 1),
	// lowest index on ties — so stolen work lands on fast-and-idle
	// devices instead of merely shallow ones (a slow device with a
	// short queue can still be the worse adoption target). Devices
	// with no TTFT observation yet score zero and win first, matching
	// LatencyWeighted's probing behavior.
	LatencySteal bool
	// Deprecated: Parallelism has no effect; Run advances every device
	// on its own goroutine.
	Parallelism int
}

// DefaultEWMAAlpha weights the newest TTFT sample in the per-device
// latency EWMA behind LatencyWeighted routing and LatencySteal.
const DefaultEWMAAlpha = 0.2

// DefaultMigrationPenalty is the cross-device handoff cost in seconds
// charged when a prefilled query resumes on another device: moving its
// KV cache off-device and re-laying it into the destination's mapping —
// an order of magnitude above serve.DefaultFailoverPenalty, which only
// crosses replicas inside one device.
const DefaultMigrationPenalty = 0.25

// DefaultProbeQuota caps the queries routed or stolen to a device whose
// health breaker is half-open, per barrier interval, until a probe
// outcome is observed: recovered devices re-earn traffic gradually
// instead of being slammed the moment their cooldown expires.
const DefaultProbeQuota = 1

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.SyncInterval == 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = serve.DefaultBreakerCooldown
	}
	return c
}

// Validate rejects degenerate cluster configurations (after defaults).
func (c Config) Validate() error {
	if c.Strategy < RoundRobin || c.Strategy > SLOTiered {
		return fmt.Errorf("cluster: unknown strategy %d", int(c.Strategy))
	}
	if !(c.ArrivalRate > 0) || math.IsInf(c.ArrivalRate, 0) {
		return fmt.Errorf("cluster: arrival rate must be positive and finite, got %g", c.ArrivalRate)
	}
	if c.Queries <= 0 {
		return fmt.Errorf("cluster: query count must be positive")
	}
	for name, v := range map[string]float64{
		"SyncInterval":    c.SyncInterval,
		"DeadlineTTLT":    c.DeadlineTTLT,
		"BreakerCooldown": c.BreakerCooldown,
		"FaultMTBF":       c.FaultMTBF,
		"FaultMTTR":       c.FaultMTTR,
	} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: %s must be a finite non-negative duration, got %g", name, v)
		}
	}
	if c.SyncInterval <= 0 {
		return fmt.Errorf("cluster: SyncInterval must be positive, got %g", c.SyncInterval)
	}
	if c.QueueCap < 0 || c.BreakerThreshold < 0 || c.DeviceBreakerThreshold < 0 || c.StealThreshold < 0 {
		return fmt.Errorf("cluster: negative limit in %+v", c)
	}
	if c.FaultFraction < 0 || c.FaultFraction > 1 || math.IsNaN(c.FaultFraction) {
		return fmt.Errorf("cluster: FaultFraction must be in [0, 1], got %g", c.FaultFraction)
	}
	if c.FaultMTBF > 0 && c.FaultMTTR <= 0 {
		return fmt.Errorf("cluster: FaultMTBF without a positive FaultMTTR")
	}
	if c.Policy < serve.PolicyNone || c.Policy > serve.PolicyFailover {
		return fmt.Errorf("cluster: unknown policy %d", int(c.Policy))
	}
	return nil
}

// ClassMetrics aggregates one device class's slice of a cluster run.
type ClassMetrics struct {
	// Class is the DeviceClass label; Devices its device count.
	Class   string
	Devices int
	// Routed counts arrivals the router sent to this class; the
	// remaining fields are summed device outcomes for those arrivals.
	// TimedOut is always 0, like Metrics.TimedOut.
	Routed, Completed, Failed, TimedOut, Rejected int
	// TTFT summarizes arrival-to-first-token over the class's
	// completions.
	TTFT stats.Quantiles
	// PIMUtilization and Availability are device means over the class.
	PIMUtilization float64
	Availability   float64
}

// Metrics summarizes one cluster run.
type Metrics struct {
	// Strategy, Devices and Queries echo the run shape.
	Strategy StrategyKind
	Devices  int
	Queries  int

	// Routed + Shed == Queries: every arrival is either dispatched to a
	// device or shed at the router (no eligible device, or a tiered
	// admission refusal). ShedByClass splits Shed by priority class.
	Routed, Shed int
	ShedByClass  [NumClasses]int

	// Device-side accounting over routed queries: every migration
	// re-counts its query as Arrived at the destination, so once
	// drained Arrived == Routed + Stolen while the terminal identity
	// Completed + Failed + Rejected == Routed counts each query
	// exactly once (without stealing both reduce to Arrived == Routed).
	// TimedOut is always 0: devices have no hard query timeout. It
	// stays only because the benchmark harness under bench/ compiles
	// against it and digests these metrics with %+v, field names
	// included.
	Arrived, Completed, Failed, TimedOut, Rejected int
	// Degraded, FailedOver and DeviceBreakerOpens sum the in-device
	// degradation machinery; BreakerOpens counts router-side health
	// breaker opens.
	Degraded, FailedOver, DeviceBreakerOpens, BreakerOpens int

	// Steal echoes Config.Steal. Stolen counts queries migrated between
	// devices at barrier re-route phases; StolenPrefilled is the subset
	// that had already finished prefill (each charged
	// DefaultMigrationPenalty at its destination). Retracted sums the
	// device-side retraction counters and always equals Stolen — kept
	// separate as a conservation cross-check.
	Steal                   bool
	Stolen, StolenPrefilled int
	Retracted               int

	// Barriers is the number of telemetry barriers the run crossed.
	Barriers int

	// TTFT and TTLT pool the per-query samples across all devices.
	TTFT, TTLT stats.Quantiles
	// SLOMet counts completions within DeadlineTTLT; Makespan is the
	// latest device clock after the drain; ThroughputQPS and GoodputQPS
	// divide Completed and SLOMet by it.
	SLOMet                    int
	Makespan                  float64
	ThroughputQPS, GoodputQPS float64

	// PerClass breaks the run down by device class, in roster order.
	PerClass []ClassMetrics
}
