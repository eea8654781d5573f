// Package run is the run-engine layer between the front ends (the
// facilsim CLI, the facild daemon) and the experiment stack: it owns
// the scenario schema and its folding into exp.Configs, Lab
// construction with tracer and progress wiring, manifest assembly and
// result export. cmd/facilsim and internal/daemon are thin
// shells over this package — a scenario runs identically (byte-for-byte
// in its Report tables) whichever front end submits it.
package run

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"facil/internal/cluster"
	"facil/internal/exp"
	"facil/internal/serve"
)

// Scenario is one engine invocation: the experiment identifiers to run
// plus the parameter overrides the CLI exposes as flags. The JSON form
// is the daemon's POST /runs body and the record/replay file format;
// field names mirror the facilsim flag names, so a recorded scenario
// reads like the command line that produced it.
//
// QueueCap and SLO use -1 (the CLI flag default) for "keep the
// experiment's own default", because 0 is meaningful for both (0 =
// unbounded queue / no SLO). Decode layers JSON over DefaultScenario so
// omitted fields keep that semantics.
type Scenario struct {
	// Experiments lists the identifiers to run, in order (empty or
	// "all" = every experiment in DESIGN.md order). Merged from
	// positional arguments and -id on the CLI.
	Experiments []string `json:"experiments,omitempty"`
	// Queries overrides the per-dataset query count of the dataset and
	// serving experiments (0 = experiment default).
	Queries int `json:"queries,omitempty"`
	// Seed overrides the sampling seed (0 = experiment default).
	Seed int64 `json:"seed,omitempty"`
	// Scale is tab1's memory down-scale factor (0 = default 8,
	// 1 = paper-size).
	Scale int64 `json:"scale,omitempty"`
	// Rates is serving2's comma-separated arrival-rate sweep in q/s
	// ("" = default).
	Rates string `json:"rates,omitempty"`
	// Replicas is serving2's comma-separated replica-count sweep
	// ("" = default).
	Replicas string `json:"replicas,omitempty"`
	// Modes is the comma-separated lane-scheduler sweep for serving2 and
	// resilience ("" = default).
	Modes string `json:"modes,omitempty"`
	// QueueCap bounds the admission queue of serving2/resilience
	// (0 = unbounded, -1 = experiment default). Not omitempty: 0 is
	// meaningful, so the recorded form always spells it out.
	QueueCap int `json:"queuecap"`
	// SLO is the TTLT goodput deadline in seconds (0 = none,
	// -1 = experiment default). Not omitempty, as for QueueCap.
	SLO float64 `json:"slo"`
	// Faults is resilience's comma-separated lane-MTBF sweep in seconds
	// ("" = default).
	Faults string `json:"faults,omitempty"`
	// FaultSeed is resilience's fault-scenario seed (0 = default).
	FaultSeed int64 `json:"faultseed,omitempty"`
	// Policy is resilience's comma-separated degradation-policy sweep
	// ("" = default). The cluster experiment reads a single policy from
	// it (a one-entry list) as each device's degradation policy.
	Policy string `json:"policy,omitempty"`
	// Strategy is the cluster experiment's comma-separated
	// balancing-strategy sweep ("" = all four).
	Strategy string `json:"strategy,omitempty"`
	// Fleet is the cluster device-class roster as a
	// "platform[/macN]:count" comma list, e.g. "jetson:26,ideapad/mac8:26"
	// ("" = experiment default).
	Fleet string `json:"fleet,omitempty"`
	// Devices rescales the cluster fleet (default or -fleet) to a total
	// device count, preserving the class mix (0 = keep the roster's own
	// counts).
	Devices int `json:"devices,omitempty"`
	// Rate is the cluster-wide arrival rate in q/s (0 = default).
	Rate float64 `json:"rate,omitempty"`
	// Sync is the cluster telemetry-barrier interval in virtual seconds
	// (0 = default).
	Sync float64 `json:"sync,omitempty"`
	// Steal toggles the cluster experiment's cross-device migration rows
	// (1 = on, 0 = off, -1 = experiment default). Not omitempty: 0 is
	// meaningful, so the recorded form always spells it out.
	Steal int `json:"steal"`
	// StealThreshold is the in-system depth that triggers stealing from a
	// healthy device (0 = breaker-driven evacuation only, -1 = experiment
	// default). Not omitempty, as for Steal.
	StealThreshold int `json:"stealthreshold"`
	// StealScore picks the cluster steal-destination scoring: "depth"
	// (least-loaded) or "latency" (TTFT-EWMA expected-wait proxy);
	// "" keeps the experiment default.
	StealScore string `json:"stealscore,omitempty"`
	// TuneBudget overrides the maptune candidate budget per cell
	// (0 = experiment default).
	TuneBudget int `json:"tunebudget,omitempty"`
	// TuneSeed overrides the maptune mutation seed (0 = experiment
	// default).
	TuneSeed int64 `json:"tuneseed,omitempty"`
}

// DefaultScenario returns the scenario matching facilsim's flag
// defaults: every experiment, every override at its "experiment
// default" sentinel.
func DefaultScenario() Scenario {
	return Scenario{QueueCap: -1, SLO: -1, Steal: -1, StealThreshold: -1}
}

// Decode parses one scenario JSON document layered over the defaults,
// so omitted fields keep their CLI-default semantics. Unknown fields
// are rejected — a typo'd override should fail the submission, not
// silently run the default.
func Decode(r io.Reader) (Scenario, error) {
	sc := DefaultScenario()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("run: bad scenario: %w", err)
	}
	return sc, nil
}

// Load replays a scenario file recorded by Save (or written by hand).
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	sc, err := Decode(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Save records the scenario as an indented JSON file a later -scenario
// flag or daemon POST can replay.
func (sc Scenario) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allExperiments is the identifier that stands for every experiment.
const allExperiments = "all"

// IDs returns the experiment identifiers the scenario runs: its explicit
// list with each allExperiments entry expanded, or every experiment in
// DESIGN.md order when the list is empty.
func (sc Scenario) IDs() []string {
	if len(sc.Experiments) == 0 {
		return exp.AllIDs
	}
	var ids []string
	for _, id := range sc.Experiments {
		if id == allExperiments {
			ids = append(ids, exp.AllIDs...)
		} else {
			ids = append(ids, id)
		}
	}
	return ids
}

// Args renders the scenario back to its canonical facilsim flag form.
// Manifests stamp it as the run's command line, so a daemon-produced
// report names the CLI invocation that reproduces it.
func (sc Scenario) Args() []string {
	var args []string
	str := func(flag, v string) {
		if v != "" {
			args = append(args, "-"+flag, v)
		}
	}
	num := func(flag string, v int64) {
		if v != 0 {
			args = append(args, "-"+flag, strconv.FormatInt(v, 10))
		}
	}
	if len(sc.Experiments) > 0 {
		str("id", strings.Join(sc.Experiments, ","))
	}
	num("queries", int64(sc.Queries))
	num("seed", sc.Seed)
	num("scale", sc.Scale)
	str("rates", sc.Rates)
	str("replicas", sc.Replicas)
	str("modes", sc.Modes)
	if sc.QueueCap >= 0 {
		args = append(args, "-queuecap", strconv.Itoa(sc.QueueCap))
	}
	if sc.SLO >= 0 {
		args = append(args, "-slo", strconv.FormatFloat(sc.SLO, 'g', -1, 64))
	}
	str("faults", sc.Faults)
	num("faultseed", sc.FaultSeed)
	str("policy", sc.Policy)
	str("strategy", sc.Strategy)
	str("fleet", sc.Fleet)
	num("devices", int64(sc.Devices))
	if sc.Rate > 0 {
		args = append(args, "-rate", strconv.FormatFloat(sc.Rate, 'g', -1, 64))
	}
	if sc.Sync > 0 {
		args = append(args, "-sync", strconv.FormatFloat(sc.Sync, 'g', -1, 64))
	}
	if sc.Steal >= 0 {
		args = append(args, "-steal="+strconv.FormatBool(sc.Steal != 0))
	}
	if sc.StealThreshold >= 0 {
		args = append(args, "-stealthreshold", strconv.Itoa(sc.StealThreshold))
	}
	str("stealscore", sc.StealScore)
	num("tunebudget", int64(sc.TuneBudget))
	num("tuneseed", sc.TuneSeed)
	return args
}

// Validate resolves every experiment identifier and folds every
// override (Configs), returning the first problem. The daemon rejects a
// bad scenario at submission with this; the CLI instead lets unknown
// identifiers surface as per-experiment failures so one typo cannot
// take down a batch of valid experiments.
func (sc Scenario) Validate() error {
	for _, id := range sc.IDs() {
		if !exp.Known(id) {
			return fmt.Errorf("run: unknown experiment %q (see -list or GET /experiments)", id)
		}
	}
	_, err := sc.Configs()
	return err
}

// Bounds on untrusted scenario sizes: each admits every documented
// command with room to spare, and keeps one POST from tying up (or
// overflowing) the engine.
const (
	maxQueries    = 10_000_000
	maxDevices    = 100_000
	maxTuneBudget = 1 << 20
)

// Configs folds the scenario's overrides into every experiment's
// default parameters. Each field is parsed once and applied to every
// experiment that reads it: Queries and Seed seed the dataset and
// serving experiments (Seed also tab1's fragmentation), QueueCap and
// SLO bound every serving queue, Modes and Faults/Policy sweep
// serving2 and resilience, and the cluster experiment reads a single
// Policy and a single Faults MTBF per device — a rule enforced only
// when the scenario runs cluster.
func (sc Scenario) Configs() (exp.Configs, error) {
	c := exp.DefaultConfigs()
	switch {
	case sc.Queries < 0 || sc.Queries > maxQueries:
		return c, fmt.Errorf("run: bad queries %d (want 0..%d)", sc.Queries, maxQueries)
	case sc.Scale < 0:
		return c, fmt.Errorf("run: bad scale %d (want >= 0)", sc.Scale)
	case sc.Devices < 0 || sc.Devices > maxDevices:
		return c, fmt.Errorf("run: bad devices %d (want 0..%d)", sc.Devices, maxDevices)
	case !finite(sc.Rate) || !finite(sc.Sync) || !finite(sc.SLO):
		return c, fmt.Errorf("run: rate %g, sync %g and slo %g must be finite", sc.Rate, sc.Sync, sc.SLO)
	case sc.Rate < 0 || sc.Sync < 0:
		return c, fmt.Errorf("run: bad rate %g / sync %g (want >= 0)", sc.Rate, sc.Sync)
	case sc.TuneBudget < 0 || sc.TuneBudget > maxTuneBudget:
		return c, fmt.Errorf("run: bad tunebudget %d (want 0..%d)", sc.TuneBudget, maxTuneBudget)
	case sc.QueueCap < -1 || sc.SLO < -1 || sc.Steal < -1 || sc.StealThreshold < -1:
		return c, fmt.Errorf("run: queuecap, slo, steal and stealthreshold take -1 (default) or a value >= 0")
	}
	if sc.Queries > 0 {
		c.Dataset.Queries, c.Serving2.Queries, c.Resilience.Queries, c.Cluster.Queries = sc.Queries, sc.Queries, sc.Queries, sc.Queries
	}
	if sc.Seed != 0 {
		c.Table1.Seed, c.Dataset.Seed, c.Serving2.Seed, c.Resilience.Seed, c.Cluster.Seed = sc.Seed, sc.Seed, sc.Seed, sc.Seed, sc.Seed
	}
	if sc.FaultSeed != 0 {
		c.Resilience.FaultSeed, c.Cluster.FaultSeed = sc.FaultSeed, sc.FaultSeed
	}
	if sc.QueueCap >= 0 {
		c.Serving2.QueueCap, c.Resilience.QueueCap, c.Cluster.QueueCap = sc.QueueCap, sc.QueueCap, sc.QueueCap
	}
	if sc.SLO >= 0 {
		c.Serving2.DeadlineTTLT, c.Resilience.DeadlineTTLT, c.Cluster.DeadlineTTLT = sc.SLO, sc.SLO, sc.SLO
	}
	if sc.Scale > 0 {
		c.Table1.Scale = sc.Scale
	}
	if sc.Rate > 0 {
		c.Cluster.Rate = sc.Rate
	}
	if sc.Sync > 0 {
		c.Cluster.SyncInterval = sc.Sync
	}
	if sc.Steal >= 0 {
		c.Cluster.Migration = sc.Steal != 0
	}
	if sc.StealThreshold >= 0 {
		c.Cluster.StealThreshold = sc.StealThreshold
	}
	if sc.TuneBudget > 0 {
		c.MapTune.Budget = sc.TuneBudget
	}
	if sc.TuneSeed != 0 {
		c.MapTune.Seed = sc.TuneSeed
	}
	switch sc.StealScore {
	case "":
	case "depth", "latency":
		c.Cluster.LatencySteal = sc.StealScore == "latency"
	default:
		return c, fmt.Errorf("run: bad stealscore %q (want depth or latency)", sc.StealScore)
	}

	var err error
	if sc.Rates != "" {
		if c.Serving2.Rates, err = parseList(sc.Rates, positive("rates")); err != nil {
			return c, err
		}
	}
	if sc.Replicas != "" {
		if c.Serving2.Replicas, err = parseList(sc.Replicas, func(f string) (int, error) {
			n, err := strconv.Atoi(f)
			if err != nil || n <= 0 {
				return 0, fmt.Errorf("run: bad replicas entry %q", f)
			}
			return n, nil
		}); err != nil {
			return c, err
		}
	}
	if sc.Modes != "" {
		if c.Serving2.Modes, err = parseList(sc.Modes, serve.ParseMode); err != nil {
			return c, err
		}
		c.Resilience.Modes = c.Serving2.Modes
	}
	if sc.Strategy != "" {
		if c.Cluster.Strategies, err = parseList(sc.Strategy, cluster.ParseStrategy); err != nil {
			return c, err
		}
	}
	runsCluster := slices.Contains(sc.IDs(), "cluster")
	if sc.Policy != "" {
		if c.Resilience.Policies, err = parseList(sc.Policy, serve.ParsePolicy); err != nil {
			return c, err
		}
		if len(c.Resilience.Policies) > 1 && runsCluster {
			return c, fmt.Errorf("run: the cluster experiment takes a single -policy, got %q", sc.Policy)
		}
		c.Cluster.Policy = c.Resilience.Policies[0]
	}
	if sc.Faults != "" {
		if c.Resilience.LaneMTBFs, err = parseList(sc.Faults, positive("faults")); err != nil {
			return c, err
		}
		if len(c.Resilience.LaneMTBFs) > 1 && runsCluster {
			return c, fmt.Errorf("run: the cluster experiment takes a single -faults MTBF, got %q", sc.Faults)
		}
		c.Cluster.FaultMTBF = c.Resilience.LaneMTBFs[0]
	}
	if sc.Fleet != "" {
		if c.Cluster.Fleet, err = cluster.ParseFleet(sc.Fleet); err != nil {
			return c, err
		}
	}
	if err := checkFleet(c.Cluster.Fleet); err != nil {
		return c, err
	}
	// The rescaled fleet has max(Devices, classes) devices, both within
	// the bound by now.
	if sc.Devices > 0 {
		c.Cluster.Fleet = cluster.ScaleFleet(c.Cluster.Fleet, sc.Devices)
	}
	return c, nil
}

// checkFleet bounds a device roster, class by class before summing so
// the total cannot overflow.
func checkFleet(fleet []cluster.DeviceClass) error {
	total := 0
	for _, d := range fleet {
		if d.Count > maxDevices-total {
			return fmt.Errorf("run: fleet exceeds %d devices", maxDevices)
		}
		total += d.Count
	}
	return nil
}

// parseList parses a comma-separated override list entry by entry.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// positive parses one positive, finite float entry of the named list.
func positive(name string) func(string) (float64, error) {
	return func(f string) (float64, error) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || !finite(v) || v <= 0 {
			return 0, fmt.Errorf("run: bad %s entry %q (want a positive number)", name, f)
		}
		return v, nil
	}
}

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
