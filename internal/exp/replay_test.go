package exp

import (
	"context"
	"testing"

	"facil/internal/dram"
)

// replayDelta runs fn and returns the stream replays and requests it
// added to dram.Global. The exp tests run one at a time, so nothing
// else replays meanwhile.
func replayDelta(t *testing.T, fn func() error) (streams, requests int64) {
	t.Helper()
	s0, r0 := dram.Global.Streams(), dram.Global.Requests()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return dram.Global.Streams() - s0, dram.Global.Requests() - r0
}

// TestMapTuneReplayCount pins the tuner's re-validation at one replay
// per segment of each distinct (platform, genome) pair on the default
// grid: the Alpaca and autocomplete cells of a platform share their
// trace codes, so a genome both cells re-validate replays once. Tuner
// replays bypass the process memo, so the count holds in any order.
func TestMapTuneReplayCount(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full tuner grid in -short mode")
	}
	streams, requests := replayDelta(t, func() error {
		_, err := freshLab().MapTuneCompute(context.Background(), DefaultMapTuneConfig())
		return err
	})
	if streams != 42 || requests != 2752512 {
		t.Errorf("MapTuneCompute made %d replays of %d requests, want 42 of 2752512", streams, requests)
	}
}

// TestPaperRunReplayBound bounds a whole-registry run (facilsim -id
// all) in one lab: each distinct DRAM stream replays at most once, so
// the run makes at most 86 replays of 11,706,368 requests (116 of
// 15,507,456 before the replay memo). Replays other tests already
// memoized only lower the count.
func TestPaperRunReplayBound(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-registry run in -short mode")
	}
	l, cfg := freshLab(), DefaultConfigs()
	streams, requests := replayDelta(t, func() error {
		for _, id := range AllIDs {
			if _, err := l.Run(context.Background(), id, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("-id all: %d replays of %d requests", streams, requests)
	if streams > 86 || requests > 11706368 {
		t.Errorf("-id all made %d replays of %d requests, want at most 86 of 11706368", streams, requests)
	}
}
