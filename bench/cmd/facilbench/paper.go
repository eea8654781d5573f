package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"facil/internal/engine"
	"facil/internal/exp"
	"facil/internal/run"
)

// setupIDs are the motivation figures: the cheapest experiments, run by
// the paper workload's set-up processes to time a cold facilsim start.
var setupIDs = []string{"fig2a", "fig2b", "fig3", "fig6"}

// facilsim runs one cold `facilsim -format json` process over ids (nil
// = every experiment) at worker bound par, and checks it: exit 0, no
// failed experiment, and a result with tables for every identifier.
// It returns the checked op and the process's mean RSS in MB. With a
// calibrator the process runs under waitSliced, and Scale turns its
// running time into reference seconds.
func facilsim(ctx context.Context, o runOpts, ids []string, par int, cal *calibrator) (opResult, float64) {
	want := exp.AllIDs
	args := []string{"-format", "json", "-par", strconv.Itoa(par), "-seed", strconv.FormatInt(o.seed, 10)}
	if ids != nil {
		want = ids
		args = append(args, "-id", strings.Join(ids, ","))
	}
	cmd := exec.CommandContext(ctx, o.facilsim, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	op := opResult{Work: float64(len(want))}
	var before float64
	if cal != nil {
		before = cal.measure()
	}
	start := time.Now()
	err := cmd.Start()
	var rss float64
	if err == nil {
		stopRSS := sampleRSS(cmd.Process.Pid)
		exited := make(chan time.Time, 1)
		go func() {
			err = cmd.Wait()
			exited <- time.Now()
		}()
		if cal == nil {
			op.Seconds = (<-exited).Sub(start).Seconds()
		} else {
			var ref float64
			op.Seconds, ref, _, _ = waitSliced(cmd.Process, cal, before, exited)
			op.Scale = ref / op.Seconds
		}
		rss = stopRSS()
	}
	if err != nil {
		op.Err = fmt.Sprintf("facilsim %s: %v", strings.Join(args, " "), err)
		return op, rss
	}
	var rep exp.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		op.Err = fmt.Sprintf("facilsim report: %v", err)
		return op, rss
	}
	if len(rep.Manifest.Failed) > 0 {
		op.Err = fmt.Sprintf("facilsim: failed experiments %v", rep.Manifest.Failed)
		return op, rss
	}
	op.Digest, err = resultsDigest(rep.Results, want)
	if err != nil {
		op.Err = err.Error()
	}
	return op, rss
}

// resultsDigest checks that results hold one successful, non-empty
// result per wanted identifier, in order, and hashes their tables
// (elapsed times zeroed), so a CLI run and an in-process run of the same
// experiments compare equal.
func resultsDigest(results []exp.Result, want []string) (string, error) {
	if len(results) != len(want) {
		return "", fmt.Errorf("paper: %d results for %d experiments", len(results), len(want))
	}
	canon := make([]exp.Result, len(results))
	for i, r := range results {
		switch {
		case r.ID != want[i]:
			return "", fmt.Errorf("paper: result %d is %q, want %q", i, r.ID, want[i])
		case r.Error != "":
			return "", fmt.Errorf("paper: %s: %s", r.ID, r.Error)
		case len(r.Tables) == 0:
			return "", fmt.Errorf("paper: %s produced no tables", r.ID)
		}
		canon[i] = r
		canon[i].ElapsedSeconds = 0
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// paperSession is the traced paper op: every experiment in process, one
// exp.Lab run at a time at one worker, so the per-experiment spans add
// up to the op.
type paperSession struct{ seed int64 }

func openPaper(_ context.Context, seed int64) (session, error) { return &paperSession{seed: seed}, nil }

func (p *paperSession) close() {}

func (p *paperSession) op(ctx context.Context, rec *recorder, parent int) opResult {
	eng := run.New(run.Options{Config: engine.DefaultConfig(), Tool: "facilbench", Parallelism: 1})
	var results []exp.Result
	secs, err := timed(func() error {
		for _, id := range exp.AllIDs {
			sc := run.DefaultScenario()
			sc.Experiments, sc.Seed = []string{id}, p.seed
			sp := rec.begin("exp."+id, parent, 1)
			rep, err := eng.Execute(ctx, sc, run.ExecOpts{})
			rec.end(sp)
			if err != nil {
				return err
			}
			results = append(results, rep.Results...)
		}
		return nil
	})
	sum, cerr := resultsDigest(results, exp.AllIDs)
	return checked(secs, float64(len(exp.AllIDs)), sum, err, cerr)
}

func (p *paperSession) layer(rec *recorder, n int) map[string]float64 {
	self := selfByName(rec.list())
	m := map[string]float64{}
	for _, id := range exp.AllIDs {
		m["exp."+id+"_s"] = self["exp."+id] / float64(n)
	}
	return m
}
