package exp

import (
	"context"
	"testing"

	"facil/internal/dram"
)

// replayWork is what fn added to dram.Global: stream replays, requests,
// scheduler commands and queue entries the command picks visited.
type replayWork struct {
	streams, requests, commands, visited int64
}

// replayDelta runs fn and returns the work it added to dram.Global. The
// exp tests run one at a time, so nothing else replays meanwhile.
func replayDelta(t *testing.T, fn func() error) replayWork {
	t.Helper()
	read := func() replayWork {
		g := &dram.Global
		return replayWork{g.Streams(), g.Requests(), g.Commands(), g.Visited()}
	}
	w0 := read()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	w := read()
	return replayWork{w.streams - w0.streams, w.requests - w0.requests, w.commands - w0.commands, w.visited - w0.visited}
}

// TestMapTuneReplayCount pins the tuner's re-validation at one replay
// per segment of each distinct (platform, genome) pair on the default
// grid: the Alpaca and autocomplete cells of a platform share their
// trace codes, so a genome both cells re-validate replays once. Tuner
// replays bypass the process memo, so the count holds in any order. The
// scheduler's work is pinned exactly too: the commands it issued and
// the queue entries its picks visited (a pick that walked every bank
// with visible work would visit more).
// The search side is pinned the same way: the cells of a platform share
// their trace's estimator memo, so of the 1,024 candidates evaluated
// only the genomes new to their platform replay on the estimator.
func TestMapTuneReplayCount(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full tuner grid in -short mode")
	}
	var cells []MapTuneCell
	got := replayDelta(t, func() (err error) {
		cells, err = freshLab().MapTuneCompute(context.Background(), DefaultMapTuneConfig())
		return err
	})
	if want := (replayWork{42, 2752512, 3200285, 17669721}); got != want {
		t.Errorf("MapTuneCompute did %+v, want %+v", got, want)
	}
	evaluated, replayed := 0, 0
	for _, c := range cells {
		evaluated += c.Result.Evaluated
		replayed += c.Result.Replayed
	}
	if evaluated != 1024 || replayed != 738 {
		t.Errorf("MapTuneCompute evaluated %d candidates and replayed %d on the estimator, want 1024 and 738", evaluated, replayed)
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
	w := replayDelta(t, func() error {
		for _, id := range AllIDs {
			if _, err := l.Run(context.Background(), id, cfg); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("-id all: %d replays of %d requests, %d commands, %d queue entries visited", w.streams, w.requests, w.commands, w.visited)
	if w.streams > 86 || w.requests > 11706368 {
		t.Errorf("-id all made %d replays of %d requests, want at most 86 of 11706368", w.streams, w.requests)
	}
}
