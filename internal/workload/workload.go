// Package workload generates the (prefill, decode) token-length samples
// driving the paper's real-world dataset evaluation (Figs. 15-16).
//
// The paper samples the Alpaca dataset (LLM virtual-assistant traffic) and
// the autocompletion subset of RealHumanEval (code completion traffic),
// tokenizes them, and uses the token counts as input/output lengths. The
// datasets themselves are not redistributable here, so this package
// synthesizes deterministic samples from log-normal length distributions
// fitted to the published statistics of each dataset:
//
//   - Alpaca: short conversational prompts (instruction+input, ~20 tokens
//     median) with medium-length GPT-3.5 answers (~65 tokens median).
//   - RealHumanEval autocompletion: long code-context prompts (~250
//     tokens median) with short completions (~25 tokens median).
//
// The TTFT/TTLT comparison depends only on these length distributions,
// which is what makes the substitution behaviour-preserving.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Query is one inference request: prefill (input) and decode (output)
// token counts.
type Query struct {
	Prefill int
	Decode  int
}

// Dataset is a named collection of queries.
type Dataset struct {
	Name    string
	Queries []Query
}

// LengthDist is a clamped log-normal token-length distribution.
type LengthDist struct {
	// MedianTokens is exp(mu).
	MedianTokens float64
	// Sigma is the log-space standard deviation.
	Sigma float64
	// Min and Max clamp the sample.
	Min, Max int
}

// Sample draws one length.
func (d LengthDist) Sample(rng *rand.Rand) int {
	v := math.Exp(math.Log(d.MedianTokens) + d.Sigma*rng.NormFloat64())
	n := int(v + 0.5)
	if n < d.Min {
		n = d.Min
	}
	if n > d.Max {
		n = d.Max
	}
	return n
}

// Spec describes a synthetic dataset.
type Spec struct {
	Name    string
	Prefill LengthDist
	Decode  LengthDist
}

// AlpacaSpec matches the Alpaca conversation profile.
func AlpacaSpec() Spec {
	return Spec{
		Name:    "Alpaca",
		Prefill: LengthDist{MedianTokens: 20, Sigma: 0.8, Min: 2, Max: 512},
		Decode:  LengthDist{MedianTokens: 65, Sigma: 0.7, Min: 2, Max: 512},
	}
}

// AutocompleteSpec matches the RealHumanEval autocompletion profile.
func AutocompleteSpec() Spec {
	return Spec{
		Name:    "Code autocompletion",
		Prefill: LengthDist{MedianTokens: 250, Sigma: 0.7, Min: 8, Max: 2048},
		Decode:  LengthDist{MedianTokens: 25, Sigma: 0.6, Min: 1, Max: 128},
	}
}

// Stream draws a spec's queries one at a time. It makes exactly the
// rand.Rand calls Generate makes, in the same order, so its k-th draw is
// Generate's k-th query for the same seed; a caller that consumes
// arrivals as they come holds none of the rest.
type Stream struct {
	spec Spec
	rng  *rand.Rand
}

// NewStream starts the query stream of spec under seed.
func NewStream(spec Spec, seed int64) *Stream {
	return &Stream{spec: spec, rng: rand.New(rand.NewSource(seed))}
}

// Next draws the next query: its prefill length, then its decode length.
func (s *Stream) Next() Query {
	p := s.spec.Prefill.Sample(s.rng)
	return Query{Prefill: p, Decode: s.spec.Decode.Sample(s.rng)}
}

// Generate draws n queries deterministically from a spec: the first n
// draws of NewStream(spec, seed).
func Generate(spec Spec, n int, seed int64) (Dataset, error) {
	if n <= 0 {
		return Dataset{}, fmt.Errorf("workload: sample size %d must be positive", n)
	}
	st := NewStream(spec, seed)
	ds := Dataset{Name: spec.Name, Queries: make([]Query, n)}
	for i := range ds.Queries {
		ds.Queries[i] = st.Next()
	}
	return ds, nil
}

// MeanPrefill and MeanDecode summarize a dataset.
func (d Dataset) MeanPrefill() float64 {
	if len(d.Queries) == 0 {
		return 0
	}
	var s int
	for _, q := range d.Queries {
		s += q.Prefill
	}
	return float64(s) / float64(len(d.Queries))
}

// MeanDecode returns the mean output length.
func (d Dataset) MeanDecode() float64 {
	if len(d.Queries) == 0 {
		return 0
	}
	var s int
	for _, q := range d.Queries {
		s += q.Decode
	}
	return float64(s) / float64(len(d.Queries))
}
