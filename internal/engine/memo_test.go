package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"facil/internal/dram"
	"facil/internal/fault"
	"facil/internal/llm"
	"facil/internal/soc"
)

// The unmemoized oracles below are the latency model as it stood before
// the System's memos: every query rebuilds the prefill op list, walks
// the PIM prefill's attention loop and sums decode steps one by one.

// prefillSoCLoop is prefillSoCSeconds over Model.PrefillLinears.
func prefillSoCLoop(s *System, l int, pimLayout bool) float64 {
	var t float64
	for _, op := range s.Model.PrefillLinears(l) {
		if pimLayout {
			t += s.Platform.SecondsOnPIMLayout(op)
		} else {
			t += s.Platform.Seconds(op)
		}
	}
	return t * (1 + otherFraction)
}

// ttftStaticOracle is TTFTStatic without the memo.
func ttftStaticOracle(s *System, k Kind, l int) (float64, error) {
	switch k {
	case FACIL:
		return prefillSoCLoop(s, l, true), nil
	case HybridStatic, HybridDynamic:
		re, err := s.relayoutAllWeightsSum()
		if err != nil {
			return 0, err
		}
		return re + prefillSoCLoop(s, l, false), nil
	case SoCOnly, WeightDuplication:
		return prefillSoCLoop(s, l, false), nil
	}
	return 0, fmt.Errorf("unknown design %v", k)
}

// ttftOracle is TTFT without the memo.
func ttftOracle(s *System, k Kind, l int) (float64, error) {
	socT, err := ttftStaticOracle(s, k, l)
	if err != nil || (k != HybridDynamic && k != FACIL) {
		return socT, err
	}
	pimT, err := s.prefillPIMSeconds(l)
	if err != nil {
		return 0, err
	}
	if pimT < socT {
		return pimT, nil
	}
	return socT, nil
}

// decodeOracle is DecodeSeconds as the step-by-step loop.
func decodeOracle(s *System, k Kind, prefill, decode int) (float64, error) {
	var t float64
	for step := 1; step < decode; step++ {
		st, err := s.DecodeStepSeconds(k, prefill+step)
		if err != nil {
			return 0, err
		}
		t += st
	}
	return t, nil
}

// errProbe fails a compute so the table never stores it.
var errProbe = errors.New("probe")

// cached reports whether t holds entry i; a table holds nothing past
// its length.
func cached(t *table, i int) bool {
	w := t.words.Load()
	return w != nil && i >= 0 && i < len(*w) && (*w)[i].Load() != 0
}

// stepCached reports whether s holds the decode step of k at ctx.
func stepCached(s *System, k Kind, ctx int) bool {
	return ctx >= 0 && ctx < len(s.steps[k]) && s.steps[k][ctx].Load() != 0
}

// rowSteps is how many leading entries of the decode row of (k,
// prefill) are computed, so DecodeSeconds serves decodes up to
// rowSteps+1 from it; a prefill past the bound has no row.
func rowSteps(s *System, k Kind, prefill int) int {
	if prefill >= len(s.decodeRows[k]) {
		return 0
	}
	n := 0
	for cached(&s.decodeRows[k][prefill], n+1) {
		n++
	}
	return n
}

// pimCached reports whether s's PIM device holds the GEMV shape of the
// KV cache at ctx (adding it if not): a shape-cache hit allocates
// nothing, and a miss builds a DRAM channel.
func pimCached(t *testing.T, s *System, ctx int) bool {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.pimDev.GEMV(s.Model.AttentionKVMatrix(ctx))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs == before.Mallocs
}

// coldSystem builds a System whose memos no other test has warmed.
func coldSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(soc.Jetson, llm.Llama3_8B(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storm calls check(i) for every i < n from eight goroutines, each
// walking the indices from a different offset so misses on one key race
// from several sides. check reports mismatches with t.Errorf and
// returns the errors that end its goroutine.
func storm(t *testing.T, n int, check func(i int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := check((i + g*n/8) % n); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTTFTStaticMemoConcurrent storms a cold System's prefill memo, both
// routes, from eight goroutines and requires every TTFTStatic and TTFT
// to equal the unmemoized oracle bit for bit.
func TestTTFTStaticMemoConcurrent(t *testing.T) {
	s := coldSystem(t)
	const maxL = 512
	wantStatic := make(map[Kind][]float64)
	wantDynamic := make(map[Kind][]float64)
	var err error
	for _, k := range Kinds() {
		wantStatic[k] = make([]float64, maxL+1)
		wantDynamic[k] = make([]float64, maxL+1)
		for l := 1; l <= maxL; l++ {
			if wantStatic[k][l], err = ttftStaticOracle(s, k, l); err != nil {
				t.Fatal(err)
			}
			if wantDynamic[k][l], err = ttftOracle(s, k, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	storm(t, maxL, func(i int) error {
		l := 1 + i
		for _, k := range Kinds() {
			st, err := s.TTFTStatic(k, l)
			if err != nil {
				return err
			}
			dy, err := s.TTFT(k, l)
			if err != nil {
				return err
			}
			if !sameBits(st, wantStatic[k][l]) {
				t.Errorf("TTFTStatic(%v, %d) = %v, want %v", k, l, st, wantStatic[k][l])
			}
			if !sameBits(dy, wantDynamic[k][l]) {
				t.Errorf("TTFT(%v, %d) = %v, want %v", k, l, dy, wantDynamic[k][l])
			}
		}
		return nil
	})
}

// decodeGrid mixes short and long decodes per prefill, so concurrent
// callers grow one running-sum row from several lengths at once.
var decodeGrid = []int{1, 2, 3, 17, 128, 511, 512}

// TestDecodeMemoConcurrent storms a cold System's decode rows and
// quantum slices from eight goroutines and requires every DecodeSeconds,
// TTLT, TTLTStatic and DecodeQuantumSeconds to equal the unmemoized
// oracle bit for bit.
func TestDecodeMemoConcurrent(t *testing.T) {
	s := coldSystem(t)
	const prefills = 48
	type want struct{ dec, ttlt, ttltStatic, quantum float64 }
	wants := make(map[Kind][]want)
	for _, k := range Kinds() {
		for p := 0; p < prefills; p++ {
			for _, d := range decodeGrid {
				dec, err := decodeOracle(s, k, p, d)
				if err != nil {
					t.Fatal(err)
				}
				var w want
				w.dec = dec
				// The quantum of DecodeQuantumSteps steps from context
				// p+1 is a decode of DecodeQuantumSteps+1 tokens.
				if w.quantum, err = decodeOracle(s, k, p, DecodeQuantumSteps+1); err != nil {
					t.Fatal(err)
				}
				if p > 0 {
					ttft, err := ttftOracle(s, k, p)
					if err != nil {
						t.Fatal(err)
					}
					st, err := ttftStaticOracle(s, k, p)
					if err != nil {
						t.Fatal(err)
					}
					w.ttlt, w.ttltStatic = ttft+dec, st+dec
				}
				wants[k] = append(wants[k], w)
			}
		}
	}
	storm(t, prefills*len(decodeGrid), func(i int) error {
		p, d := i/len(decodeGrid), decodeGrid[i%len(decodeGrid)]
		for _, k := range Kinds() {
			w := wants[k][i]
			dec, err := s.DecodeSeconds(k, p, d)
			if err != nil {
				return err
			}
			if !sameBits(dec, w.dec) {
				t.Errorf("DecodeSeconds(%v, %d, %d) = %v, want %v", k, p, d, dec, w.dec)
			}
			qs, err := s.DecodeQuantumSeconds(k, p+1, DecodeQuantumSteps, 1)
			if err != nil {
				return err
			}
			if !sameBits(qs, w.quantum) {
				t.Errorf("DecodeQuantumSeconds(%v, %d, %d) = %v, want %v", k, p+1, DecodeQuantumSteps, qs, w.quantum)
			}
			if p == 0 {
				continue // no prefill: TTLT rejects it
			}
			ttlt, err := s.TTLT(k, p, d)
			if err != nil {
				return err
			}
			st, err := s.TTLTStatic(k, p, d)
			if err != nil {
				return err
			}
			if !sameBits(ttlt, w.ttlt) {
				t.Errorf("TTLT(%v, %d, %d) = %v, want %v", k, p, d, ttlt, w.ttlt)
			}
			if !sameBits(st, w.ttltStatic) {
				t.Errorf("TTLTStatic(%v, %d, %d) = %v, want %v", k, p, d, st, w.ttltStatic)
			}
		}
		return nil
	})
}

// TestDecodeQuantumTableMatchesLoop holds DecodeQuantumSeconds to the
// step-by-step sum from 0 of each step times the factor, for every
// context of both decode paths, every window of 1 to DecodeQuantumSteps
// steps and the factors 1, 1.25 and the thermal-throttle factor, cold
// and warm. Scaled windows run first and must leave the quantum slices
// unwritten; then exactly the full unscaled quanta that fit the step
// slices must be cached.
func TestDecodeQuantumTableMatchesLoop(t *testing.T) {
	s := coldSystem(t)
	thermal, err := dram.ThrottleFactor(s.Platform.Spec, fault.DefaultRefreshMult)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{SoCOnly, FACIL} {
		for ctx := 0; ctx < memoMaxCtx+DecodeQuantumSteps; ctx++ {
			for _, factor := range []float64{1.25, thermal, 1} {
				for n := 1; n <= DecodeQuantumSteps; n++ {
					var want float64
					for i := 0; i < n; i++ {
						st, err := s.DecodeStepSeconds(k, ctx+i)
						if err != nil {
							t.Fatal(err)
						}
						want += st * factor
					}
					for pass := 0; pass < 2; pass++ {
						got, err := s.DecodeQuantumSeconds(k, ctx, n, factor)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Fatalf("DecodeQuantumSeconds(%v, %d, %d, %v) pass %d = %v, want %v", k, ctx, n, factor, pass, got, want)
						}
					}
				}
				if factor != 1 && ctx < len(s.quanta[k]) && s.quanta[k][ctx].Load() != 0 {
					t.Fatalf("factor %v wrote the quantum of %v at context %d", factor, k, ctx)
				}
			}
			fits := ctx+DecodeQuantumSteps <= memoMaxCtx
			if cached := ctx < len(s.quanta[k]) && s.quanta[k][ctx].Load() != 0; cached != fits {
				t.Errorf("quantum of %v at context %d cached=%v, want %v", k, ctx, cached, fits)
			}
		}
	}
	if _, err := s.DecodeQuantumSeconds(Kind(99), 64, DecodeQuantumSteps, 1); err == nil {
		t.Error("DecodeQuantumSeconds accepted an unknown design")
	}
}

// TestLatencyMemoErrorsNotCached requires invalid lengths and designs to
// fail on every call, and a failed prefill to leave no memo entry.
func TestLatencyMemoErrorsNotCached(t *testing.T) {
	s := coldSystem(t)
	bad := Kind(99)
	calls := map[string]func() error{
		"TTFT(FACIL, 0)":         func() error { _, err := s.TTFT(FACIL, 0); return err },
		"TTFTStatic(FACIL, -1)":  func() error { _, err := s.TTFTStatic(FACIL, -1); return err },
		"TTFT(99, 16)":           func() error { _, err := s.TTFT(bad, 16); return err },
		"TTFTStatic(99, 16)":     func() error { _, err := s.TTFTStatic(bad, 16); return err },
		"TTLT(99, 16, 8)":        func() error { _, err := s.TTLT(bad, 16, 8); return err },
		"TTLTStatic(99, 16, 8)":  func() error { _, err := s.TTLTStatic(bad, 16, 8); return err },
		"DecodeSeconds(99,16,8)": func() error { _, err := s.DecodeSeconds(bad, 16, 8); return err },
		"DecodeSeconds(F,16,0)":  func() error { _, err := s.DecodeSeconds(FACIL, 16, 0); return err },
		"TTLT(FACIL, 16, 0)":     func() error { _, err := s.TTLT(FACIL, 16, 0); return err },
	}
	for i := 0; i < 2; i++ {
		for name, call := range calls {
			if call() == nil {
				t.Errorf("call %d: %s succeeded", i, name)
			}
		}
	}
	// The design-99 calls reach no table, and the failed decodes leave
	// no step or row entry; TTLT(FACIL, 16, 0) fails after its TTFT, so
	// only FACIL's prefill and the PIM prefill may hold length 16.
	for _, k := range Kinds() {
		for _, route := range []prefillRoute{routeStatic, routeDynamic} {
			if k != FACIL && cached(&s.prefills[k][route], 16) {
				t.Errorf("prefill of %v at 16 (route %d) was cached by a failed call", k, route)
			}
		}
		for ctx := range s.steps[k] {
			if stepCached(s, k, ctx) {
				t.Errorf("a failed decode of %v left a step entry at context %d", k, ctx)
			}
		}
		for p := range s.decodeRows[k] {
			if rowSteps(s, k, p) != 0 {
				t.Errorf("a failed decode of %v left a row entry at prefill %d", k, p)
			}
		}
	}
	var tb table
	for i := 0; i < 2; i++ {
		if _, err := tb.memo(3, 8, func() (float64, error) { return 0, errProbe }); !errors.Is(err, errProbe) {
			t.Errorf("memo call %d: err %v, want the compute's", i, err)
		}
	}
	if cached(&tb, 3) {
		t.Error("a failed compute was stored")
	}
}

// TestLatencyMemoBounded requires lengths past the memo bounds (prefill
// 2048, decode 512) to be computed exactly and cached nowhere, and
// lengths at the bounds to be cached.
func TestLatencyMemoBounded(t *testing.T) {
	s := coldSystem(t)
	const longP, longD = memoMaxPrefill + 1, memoMaxDecode + 1
	for _, k := range Kinds() {
		check := func(name string, got, want float64, err, oerr error) {
			t.Helper()
			if err != nil || oerr != nil {
				t.Fatalf("%s(%v): %v, oracle %v", name, k, err, oerr)
			}
			if !sameBits(got, want) {
				t.Errorf("%s(%v) = %v, want %v", name, k, got, want)
			}
		}
		got, err := s.TTFT(k, longP)
		want, oerr := ttftOracle(s, k, longP)
		check("TTFT(2049)", got, want, err, oerr)
		got, err = s.TTFTStatic(k, longP)
		want, oerr = ttftStaticOracle(s, k, longP)
		check("TTFTStatic(2049)", got, want, err, oerr)
		got, err = s.DecodeSeconds(k, longP, 8)
		want, oerr = decodeOracle(s, k, longP, 8)
		check("DecodeSeconds(2049, 8)", got, want, err, oerr)
		if _, err := s.DecodeSeconds(k, 64, 100); err != nil {
			t.Fatal(err)
		}
		got, err = s.DecodeSeconds(k, 64, longD)
		want, oerr = decodeOracle(s, k, 64, longD)
		check("DecodeSeconds(64, 513)", got, want, err, oerr)
		if n := rowSteps(s, k, 64); n != 99 {
			t.Errorf("decode row of %v at prefill 64 changed by a %d-token decode: %d steps", k, longD, n)
		}
		if _, err := s.TTLT(k, memoMaxPrefill, memoMaxDecode); err != nil {
			t.Fatal(err)
		}
		// Contexts past the step table: a long prefill's decode and a
		// direct step.
		if _, err := s.TTLT(k, memoMaxCtx, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DecodeStepSeconds(k, 2*memoMaxCtx); err != nil {
			t.Fatal(err)
		}

		for _, route := range []prefillRoute{routeStatic, routeDynamic} {
			if cached(&s.prefills[k][route], longP) {
				t.Errorf("prefill of %v at %d (route %d) was cached", k, longP, route)
			}
		}
		if n := rowSteps(s, k, longP); n != 0 {
			t.Errorf("decode row of %v at prefill %d was cached", k, longP)
		}
		if !cached(&s.prefills[k][routeStatic], memoMaxPrefill) {
			t.Errorf("prefill of %v at %d was not cached", k, memoMaxPrefill)
		}
		if n := rowSteps(s, k, memoMaxPrefill); n != memoMaxDecode-1 {
			t.Errorf("decode row of %v at prefill %d not cached to %d steps", k, memoMaxPrefill, memoMaxDecode)
		}
		for _, ctx := range []int{memoMaxCtx, memoMaxCtx + 1, 2 * memoMaxCtx} {
			if stepCached(s, k, ctx) {
				t.Errorf("decode step of %v at context %d was cached", k, ctx)
			}
		}
		if !stepCached(s, k, memoMaxCtx-1) {
			t.Errorf("decode step of %v at context %d was not cached", k, memoMaxCtx-1)
		}
	}
	if cached(&s.pimPrefills, longP) {
		t.Errorf("PIM prefill at %d was cached", longP)
	}
	if !cached(&s.pimPrefills, memoMaxPrefill) {
		t.Errorf("PIM prefill at %d was not cached", memoMaxPrefill)
	}
	for _, ctx := range []int{memoMaxCtx + 1, 2 * memoMaxCtx} {
		if pimCached(t, s, ctx) {
			t.Errorf("PIM KV shape at context %d was cached", ctx)
		}
	}
	if !pimCached(t, s, memoMaxCtx-1) {
		t.Errorf("PIM KV shape at context %d was not cached", memoMaxCtx-1)
	}
}

// TestPrefillSoCSecondsMatchesLinears pins prefillSoCSeconds to the sum
// over Model.PrefillLinears, in that order, bit for bit: every platform
// with every model, lengths 1..2048, both weight layouts.
func TestPrefillSoCSecondsMatchesLinears(t *testing.T) {
	for _, p := range soc.All() {
		for _, m := range []llm.Model{llm.Llama3_8B(), llm.OPT_6_7B(), llm.Phi1_5(), llm.GPTJ6B()} {
			s, err := NewSystem(p, m, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for l := 1; l <= memoMaxPrefill; l++ {
				for _, pimLayout := range []bool{false, true} {
					got, want := s.prefillSoCSeconds(l, pimLayout), prefillSoCLoop(s, l, pimLayout)
					if !sameBits(got, want) {
						t.Fatalf("%s/%s l=%d pimLayout=%v: %v, want %v", p.Name, m.Name, l, pimLayout, got, want)
					}
				}
			}
		}
	}
}

// TestPrefillSoCSecondsZeroAllocs gates the memos' cold path: the SoC
// prefill builds no op list.
func TestPrefillSoCSecondsZeroAllocs(t *testing.T) {
	s := jetsonSystem(t)
	if avg := testing.AllocsPerRun(100, func() {
		s.prefillSoCSeconds(300, true)
		s.prefillSoCSeconds(300, false)
	}); avg != 0 {
		t.Errorf("prefillSoCSeconds allocates %v times per call pair, want 0", avg)
	}
}

// TestTTFTStaticWarmZeroAllocs gates the memo's hit path at zero
// allocations: a serving sim reads it once per new prefill length.
func TestTTFTStaticWarmZeroAllocs(t *testing.T) {
	s := jetsonSystem(t)
	if _, err := s.TTFTStatic(FACIL, 64); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.TTFTStatic(FACIL, 64); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm TTFTStatic allocates %v times per call, want 0", avg)
	}
}

// TestLatencyWarmZeroAllocs gates the other memo hit paths at zero
// allocations: Serial-mode serving and the dataset figures read TTFT and
// TTLT once per query.
func TestLatencyWarmZeroAllocs(t *testing.T) {
	s := jetsonSystem(t)
	calls := map[string]func() (float64, error){
		"TTFT":       func() (float64, error) { return s.TTFT(FACIL, 64) },
		"TTLT":       func() (float64, error) { return s.TTLT(HybridDynamic, 64, 200) },
		"TTLTStatic": func() (float64, error) { return s.TTLTStatic(SoCOnly, 64, 200) },
		"DecodeQuantumSeconds": func() (float64, error) {
			return s.DecodeQuantumSeconds(FACIL, 64, DecodeQuantumSteps, 1)
		},
	}
	for name, call := range calls {
		if _, err := call(); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := call(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("warm %s allocates %v times per call, want 0", name, avg)
		}
	}
}

// TestLatencyMemoSpeedup is the memo's ratio gate: warm TTFT+TTLT over a
// fixed (design, prefill, decode) grid against the unmemoized oracle on
// the same grid, as the median of paired ratios over interleaved rounds
// (each round times both sides back to back, alternating which goes
// first), so a burst of load from other processes cannot decide it.
// Measured on a 2-core container: paired medians of 587-634x, and 204x
// under the race detector, which CI's full test run uses; the 50x gate
// is under a third of the lowest.
func TestLatencyMemoSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping timing comparison in -short mode")
	}
	s := jetsonSystem(t)
	type query struct {
		k    Kind
		p, d int
	}
	var grid []query
	for _, k := range Kinds() {
		for _, p := range []int{8, 64, 256, 1024} {
			for _, d := range []int{16, 128, 512} {
				grid = append(grid, query{k, p, d})
			}
		}
	}
	// perGrid times reps passes over the grid and returns the time of
	// one pass.
	perGrid := func(reps int, ttft func(Kind, int) (float64, error), ttlt func(Kind, int, int) (float64, error)) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			for _, q := range grid {
				if _, err := ttft(q.k, q.p); err != nil {
					t.Fatal(err)
				}
				if _, err := ttlt(q.k, q.p, q.d); err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start) / time.Duration(reps)
	}
	const rounds, memoReps, oracleReps = 7, 200, 2
	memo := func() time.Duration { return perGrid(memoReps, s.TTFT, s.TTLT) }
	oracle := func() time.Duration {
		return perGrid(oracleReps, func(k Kind, l int) (float64, error) { return ttftOracle(s, k, l) },
			func(k Kind, p, d int) (float64, error) {
				ttft, err := ttftOracle(s, k, p)
				if err != nil {
					return 0, err
				}
				dec, err := decodeOracle(s, k, p, d)
				return ttft + dec, err
			})
	}
	memo() // warms the memo
	ratios := make([]float64, rounds)
	for r := range ratios {
		var memoD, oracleD time.Duration
		if r%2 == 0 {
			memoD, oracleD = memo(), oracle()
		} else {
			oracleD, memoD = oracle(), memo()
		}
		ratios[r] = float64(oracleD) / float64(memoD)
	}
	sort.Float64s(ratios)
	t.Logf("paired oracle/memo ratios per grid %.0f", ratios)
	if med := ratios[rounds/2]; med < 50 {
		t.Errorf("memoized TTFT+TTLT only %.0fx faster than the unmemoized model (median of %d paired rounds), want >= 50x", med, rounds)
	}
}
