package tune

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/mapping"
	"facil/internal/parallel"
)

// Config parameterizes one search run.
type Config struct {
	// Spec is the memory system candidates are scored against; the
	// space is its 2 MiB huge page under AiM chunks.
	Spec dram.Spec
	// Trace is the captured workload trace every candidate replays.
	Trace *Trace
	// Baseline is the fixed MapID re-layout cost is measured against —
	// the mapping select_mapping would pick for the traced matrix. It
	// must be inside the platform's PIM MapID range.
	Baseline mapping.MapID
	// Budget caps the number of unique candidates scored (default 512).
	Budget int
	// TopK caps the returned Pareto front (default 8).
	TopK int
	// Seed drives the deterministic mutation stream (default 1).
	Seed int64
	// Workers bounds the evaluation pool (<= 0 selects GOMAXPROCS).
	Workers int
	// EstWindow bounds the bursts the estimator scores per trace
	// segment (default 16384, 0 keeps the default; scores are scaled
	// back to full segment length).
	EstWindow int
}

// popSize is the number of fresh candidates per generation, and maxXOR
// caps a candidate's XOR hash terms.
const (
	popSize = 32
	maxXOR  = 2
)

func (c *Config) defaults() {
	if c.Budget <= 0 {
		c.Budget = 512
	}
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EstWindow <= 0 {
		c.EstWindow = 16384
	}
}

// Candidate is one scored mapping.
type Candidate struct {
	// Genome is the candidate's canonical encoding.
	Genome Genome
	// Key is the genome's memoization identity.
	Key string
	// Cost is the estimator's verdict.
	Cost Cost
}

// FixedScore is one fixed-family member's estimator verdict.
type FixedScore struct {
	// ID is the family MapID.
	ID mapping.MapID
	// Candidate is its genome encoding and cost.
	Candidate
}

// Result is a completed search.
type Result struct {
	// Space is the design space searched.
	Space *Space
	// Front is the Pareto front over (EstCycles, MovedFrac), sorted by
	// ascending EstCycles and capped at Config.TopK.
	Front []Candidate
	// Fixed holds the MapID family's scores (the baselines the front is
	// judged against), ascending by ID.
	Fixed []FixedScore
	// Evaluated counts unique candidates scored (family included).
	Evaluated int
}

// bijectionSamples is the random-probe count of the per-candidate
// bijection gate; bijectionSeed keeps the probe set deterministic.
const (
	bijectionSamples = 64
	bijectionSeed    = 0x5eed
)

// Search runs the design-space exploration: the MapID family seeds the
// population, deterministic seeded mutations propose new genomes,
// parallel.Sweep fans the estimator out over a worker pool with
// parallel.Flight deduplicating by genome key, and the Pareto front over
// (estimated cycles, re-layout fraction) survives. Every candidate
// passes VerifyBijection before scoring. Identical configs produce
// byte-identical results at any worker count.
func Search(ctx context.Context, cfg Config) (*Result, error) {
	cfg.defaults()
	geo := cfg.Spec.Geometry
	space, err := NewSpace(mapping.MemoryConfig{Geometry: geo, HugePageBytes: 2 << 20}, mapping.AiMChunk(geo))
	if err != nil {
		return nil, err
	}
	seeds, ids, err := space.Seeds()
	if err != nil {
		return nil, err
	}
	baseIdx := -1
	for i, id := range ids {
		if id == cfg.Baseline {
			baseIdx = i
		}
	}
	if baseIdx < 0 {
		return nil, fmt.Errorf("tune: baseline %s outside the PIM MapID range [%s, %s]",
			cfg.Baseline, ids[0], ids[len(ids)-1])
	}
	baseline := seeds[baseIdx]

	// Validate the evaluator configuration once, then pool per-worker
	// instances (an Evaluator's scratch state is single-threaded).
	if _, err := NewEvaluator(space, cfg.Trace, cfg.Spec.Timing, cfg.EstWindow); err != nil {
		return nil, err
	}
	pool := sync.Pool{New: func() any {
		e, err := NewEvaluator(space, cfg.Trace, cfg.Spec.Timing, cfg.EstWindow)
		if err != nil {
			panic(err) // prototype construction above succeeded
		}
		if err := e.SetBaseline(baseline); err != nil {
			panic(err)
		}
		return e
	}}

	var flight parallel.Flight[string, Cost]
	score := func(g Genome, key string) (Cost, error) {
		return flight.Do(key, func() (Cost, error) {
			m, err := space.Build(g)
			if err != nil {
				return Cost{}, err
			}
			if err := VerifyBijection(m, geo, bijectionSamples, bijectionSeed); err != nil {
				return Cost{}, err
			}
			e := pool.Get().(*Evaluator)
			c, err := e.Score(g)
			pool.Put(e)
			return c, err
		})
	}

	res := &Result{Space: space}
	seen := make(map[string]bool)
	var all []Candidate
	evalBatch := func(batch []Genome) error {
		cands, err := parallel.Sweep(ctx, batch, func(_ context.Context, g Genome) (Candidate, error) {
			key := g.Key()
			c, err := score(g, key)
			if err != nil {
				return Candidate{}, err
			}
			return Candidate{Genome: g, Key: key, Cost: c}, nil
		}, parallel.Workers(cfg.Workers))
		if err != nil {
			return err
		}
		all = append(all, cands...)
		res.Evaluated += len(cands)
		return nil
	}

	if err := evalBatch(seeds); err != nil {
		return nil, err
	}
	for i, id := range ids {
		res.Fixed = append(res.Fixed, FixedScore{ID: id, Candidate: all[i]})
	}
	for _, c := range all {
		seen[c.Key] = true
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	front := paretoFront(all, 0)
	for res.Evaluated < cfg.Budget {
		want := cfg.Budget - res.Evaluated
		if want > popSize {
			want = popSize
		}
		batch := nextGeneration(space, rng, front, want, seen)
		if len(batch) == 0 {
			break // mutation stream exhausted the reachable neighborhood
		}
		if err := evalBatch(batch); err != nil {
			return nil, err
		}
		front = paretoFront(all, 0)
	}
	res.Front = paretoFront(all, cfg.TopK)
	return res, nil
}

// nextGeneration proposes up to want fresh, valid, unseen genomes by
// mutating random front members. The rng is consumed serially, keeping
// the candidate stream deterministic; proposals are capped so an
// exhausted neighborhood terminates the search instead of spinning.
func nextGeneration(s *Space, rng *rand.Rand, front []Candidate, want int, seen map[string]bool) []Genome {
	var out []Genome
	for tries := 0; len(out) < want && tries < 64*want; tries++ {
		parent := front[rng.Intn(len(front))].Genome
		child := mutate(s, rng, parent, maxXOR)
		if s.Validate(child) != nil {
			continue
		}
		key := child.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, child)
	}
	return out
}

// mutate applies one or two random edits to a copy of parent: swapping
// two page-bit assignments above the chunk prefix, shuffling the whole
// permutable suffix, or adding/dropping/rewiring an XOR hash term.
func mutate(s *Space, rng *rand.Rand, parent Genome, maxXOR int) Genome {
	g := parent.Clone()
	edits := 1 + rng.Intn(2)
	for i := 0; i < edits; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // swap two differing page bits
			lo := s.chunkPrefix
			n := len(g.Fields) - lo
			if n < 2 {
				continue
			}
			a := lo + rng.Intn(n)
			b := lo + rng.Intn(n)
			g.Fields[a], g.Fields[b] = g.Fields[b], g.Fields[a]
		case 3: // shuffle the permutable suffix (exploration)
			lo := s.chunkPrefix
			for j := len(g.Fields) - 1; j > lo; j-- {
				k := lo + rng.Intn(j-lo+1)
				g.Fields[j], g.Fields[k] = g.Fields[k], g.Fields[j]
			}
		case 4: // add an XOR term
			if s.pageRowBits == 0 || len(g.XOR) >= maxXOR {
				continue
			}
			g.XOR = append(g.XOR, randomXOR(s, rng))
		case 5: // drop or rewire an XOR term
			if len(g.XOR) == 0 {
				continue
			}
			j := rng.Intn(len(g.XOR))
			if rng.Intn(2) == 0 {
				g.XOR = append(g.XOR[:j], g.XOR[j+1:]...)
			} else {
				g.XOR[j] = randomXOR(s, rng)
			}
		}
	}
	return g
}

// randomXOR draws a random hash term; callers require pageRowBits > 0.
func randomXOR(s *Space, rng *rand.Rand) addr.XORPair {
	p := addr.XORPair{RowBit: rng.Intn(s.pageRowBits)}
	if s.chBits > 0 && rng.Intn(2) == 0 {
		p.Target = addr.FieldChannel
		p.TargetBit = rng.Intn(s.chBits)
	} else {
		p.Target = addr.FieldBank
		p.TargetBit = rng.Intn(s.bankBits)
	}
	return p
}

// dominates reports Pareto dominance of a over b on (EstCycles,
// MovedFrac).
func dominates(a, b Cost) bool {
	if a.EstCycles > b.EstCycles || a.MovedFrac > b.MovedFrac {
		return false
	}
	return a.EstCycles < b.EstCycles || a.MovedFrac < b.MovedFrac
}

// paretoFront returns the non-dominated candidates sorted by ascending
// (EstCycles, MovedFrac, Key); exact cost ties keep the first-seen
// candidate. topK > 0 caps the result.
func paretoFront(all []Candidate, topK int) []Candidate {
	var front []Candidate
	for i, c := range all {
		keep := true
		for j, o := range all {
			if j == i {
				continue
			}
			if dominates(o.Cost, c.Cost) || (o.Cost == c.Cost && j < i) {
				keep = false
				break
			}
		}
		if keep {
			front = append(front, c)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Cost.EstCycles != front[j].Cost.EstCycles {
			return front[i].Cost.EstCycles < front[j].Cost.EstCycles
		}
		if front[i].Cost.MovedFrac != front[j].Cost.MovedFrac {
			return front[i].Cost.MovedFrac < front[j].Cost.MovedFrac
		}
		return front[i].Key < front[j].Key
	})
	if topK > 0 && len(front) > topK {
		front = front[:topK]
	}
	return front
}
