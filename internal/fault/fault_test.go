package fault

import (
	"math"
	"reflect"
	"testing"
)

// drain pulls up to n windows from a stream.
func drain(lf *LaneFaults, n int) []Window {
	var out []Window
	for len(out) < n {
		w, ok := lf.Next()
		if !ok {
			break
		}
		out = append(out, w)
	}
	return out
}

func TestEmptyScenario(t *testing.T) {
	var s Scenario
	if !s.Empty() {
		t.Fatal("zero scenario must be empty")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("zero scenario must validate: %v", err)
	}
	if w := drain(s.Lanes(0), 4); len(w) != 0 {
		t.Fatalf("empty scenario produced lane windows: %v", w)
	}
	if s.ThermalAt(1) {
		t.Fatal("empty scenario reports thermal throttle")
	}
}

func TestValidateRejections(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		s    Scenario
	}{
		{"nan mtbf", Scenario{LaneMTBF: nan, LaneMTTR: 1}},
		{"inf mttr", Scenario{LaneMTBF: 1, LaneMTTR: math.Inf(1)}},
		{"negative mtbf", Scenario{LaneMTBF: -1, LaneMTTR: 1}},
		{"mtbf without mttr", Scenario{LaneMTBF: 5}},
		{"inverted window", Scenario{Thermal: []Window{{Start: 2, End: 1}}}},
		{"negative window", Scenario{Thermal: []Window{{Start: -1, End: 1}}}},
		{"nan window", Scenario{Thermal: []Window{{Start: nan, End: 1}}}},
		{"overlapping windows", Scenario{Thermal: []Window{{0, 2}, {1, 3}}}},
		{"unsorted lane windows", Scenario{LaneWindows: [][]Window{{{5, 6}, {1, 2}}}}},
		{"corrupt rate above 1", Scenario{MapIDCorruptRate: 1.5}},
		{"corrupt rate negative", Scenario{MapIDCorruptRate: -0.1}},
		{"nan corrupt rate", Scenario{MapIDCorruptRate: nan}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.s)
		}
	}
}

func TestLaneStreamDeterministic(t *testing.T) {
	s := Scenario{Seed: 7, LaneMTBF: 10, LaneMTTR: 2}
	a := drain(s.Lanes(3), 50)
	b := drain(s.Lanes(3), 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, replica) produced different streams")
	}
	other := drain(s.Lanes(4), 50)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different replicas produced identical streams")
	}
}

func TestLaneStreamOrderedAndPositive(t *testing.T) {
	s := Scenario{
		Seed:        1,
		LaneMTBF:    5,
		LaneMTTR:    1,
		LaneWindows: [][]Window{{{2, 3}, {40, 45}}},
	}
	ws := drain(s.Lanes(0), 100)
	if len(ws) != 100 {
		t.Fatalf("stochastic stream ended early: %d windows", len(ws))
	}
	prev := -1.0
	sawSched := 0
	for i, w := range ws {
		if w.End <= w.Start {
			t.Fatalf("window %d has non-positive duration: %+v", i, w)
		}
		if w.Start < prev {
			t.Fatalf("window %d out of order: start %g after previous start %g", i, w.Start, prev)
		}
		prev = w.Start
		if w == (Window{2, 3}) || w == (Window{40, 45}) {
			sawSched++
		}
	}
	if sawSched != 2 {
		t.Fatalf("scheduled windows not merged into the stream (saw %d of 2)", sawSched)
	}
}

func TestScheduledOnlyStreamEnds(t *testing.T) {
	s := Scenario{LaneWindows: [][]Window{{{1, 2}}}}
	ws := drain(s.Lanes(0), 10)
	if len(ws) != 1 || ws[0] != (Window{1, 2}) {
		t.Fatalf("scheduled-only stream = %v, want [{1 2}]", ws)
	}
	if len(drain(s.Lanes(1), 10)) != 0 {
		t.Fatal("replica beyond LaneWindows must get no scheduled outages")
	}
}

func TestThermalAt(t *testing.T) {
	s := Scenario{Thermal: []Window{{1, 2}, {5, 8}}}
	for _, tc := range []struct {
		t    float64
		want bool
	}{{0.5, false}, {1, true}, {1.99, true}, {2, false}, {5.5, true}, {9, false}} {
		if got := s.ThermalAt(tc.t); got != tc.want {
			t.Errorf("ThermalAt(%g) = %v, want %v", tc.t, got, tc.want)
		}
	}
}
