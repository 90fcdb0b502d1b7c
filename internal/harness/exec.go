package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
)

// job is one simulation a cell asks runner.exec for: the machine
// configuration, the workloads (one per hardware context, or one per
// core for a cluster), the run mode, and how to simulate it.
type job struct {
	cfg   core.Config
	loads []core.Workload
	// cluster runs the loads on a shared-L2 cluster, one core each.
	cluster bool
	// sample, when non-nil, makes the job a sampled comparison.
	sample *core.SampleSpec
	sim    simFunc
}

// simFunc simulates j under ctx, publishing progress into probe (nil
// when unobserved), and encodes the outcome as a journalable Result.
// insts is every instruction simulated, for the throughput meter.
type simFunc func(ctx context.Context, j job, probe *core.Probe) (res core.Result, insts uint64, err error)

// exactJob is a single-machine simulation: one workload per context.
func exactJob(cfg core.Config, loads ...core.Workload) job {
	return job{cfg: cfg, loads: loads, sim: simExact}
}

func simExact(ctx context.Context, j job, probe *core.Probe) (core.Result, uint64, error) {
	res, err := core.RunObserved(ctx, j.cfg, probe, j.loads...)
	return res, res.AppInsts, err
}

// key fingerprints the job. The mode prefix keeps the cluster and
// sampled spaces disjoint from exact runs (whose prefix is empty), so
// one journal holds all three.
func (j job) key() string {
	prefix := ""
	switch {
	case j.cluster:
		prefix = fmt.Sprintf("cluster/%d|", len(j.loads))
	case j.sample != nil:
		prefix = "sample/" + j.sample.String() + "|"
	}
	return runKey(prefix, j.cfg, j.loads)
}

// runKey fingerprints one simulation: the run-mode prefix, the full
// configuration and the canonical workload identities. Everything
// that affects the deterministic simulator's output is a value field
// of Config, so the formatted struct is a faithful identity.
func runKey(prefix string, cfg core.Config, loads []core.Workload) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s%+v|%s", prefix, cfg, strings.Join(workloadKeys(loads), ","))))
	return hex.EncodeToString(sum[:8])
}

// exec is the single simulation entry point of the harness, the same
// sequence for every run mode: fingerprint the job, let the owning
// cell describe itself for failure reports, fire any injected
// failure, answer from the journal when the identical simulation
// already completed, and otherwise simulate under the configured
// context and per-cell deadline with a live probe attached, journaling
// the result.
func (r *runner) exec(c *cell, j job) (core.Result, error) {
	key := j.key()
	c.describe(j, key)
	// The injection hook fires after describe (so the failure report
	// carries the configuration and a repro command) and before the
	// journal lookup (so it fires on resumed runs too).
	if r.failSpec != "" && injectedFailure(r.exp, r.failSpec, c.index) {
		panic(fmt.Sprintf("injected failure (%s=%q)", FailCellEnv, r.failSpec))
	}
	if r.journal != nil {
		if res, ok := r.journal.lookup(key); ok {
			r.noteJournalHit(c, key)
			return res, nil
		}
	}
	ctx := r.opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if r.opt.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opt.CellTimeout)
		defer cancel()
	}
	probe := c.tel.SimStarted(r.simPhase(c, key))
	res, insts, err := j.sim(ctx, j, probe)
	var cancelled *cpu.CancelledError
	if errors.As(err, &cancelled) && cancelled.Cause == nil {
		cancelled.Cause = ctx.Err()
	}
	c.tel.SimFinished(insts, res.Cycles, res.Stats, err != nil)
	r.opt.Meter.AddSimInsts(insts)
	if err != nil {
		return res, err
	}
	if r.journal != nil {
		appendDone := c.tel.JournalAppendBegin()
		jerr := r.journal.record(r.exp, key, j.cfg, loadNames(j.loads), res)
		appendDone()
		if jerr != nil {
			return res, jerr
		}
	}
	return res, nil
}

// compare runs the subject job and its perfect-TLB baseline — the same
// job under core.PerfectOf — over the same instruction stream. The
// baseline is single-flighted through the cache by its fingerprint,
// so every cell sharing a machine shape and workload set (across
// experiments, when Options.Baselines is shared) waits on one run.
func (r *runner) compare(c *cell, subj job) (core.Comparison, error) {
	res, err := r.exec(c, subj)
	if err != nil {
		return core.Comparison{}, err
	}
	r.log("  %-14s %-13s %9d cycles  %6d fills  IPC %.2f%s",
		strings.Join(loadNames(subj.loads), "-"), label(subj.cfg), res.Cycles, res.DTLBMisses, res.IPC,
		r.opt.Meter.Suffix())

	perf := subj
	perf.cfg = core.PerfectOf(subj.cfg)
	// Winners of the baseline singleflight run the simulation
	// themselves; only the cells that actually blocked on another
	// worker's run charge the wait.
	ranBaseline := false
	endWait := c.tel.BaselineWaitBegin()
	pres, err := r.base.get(perf.key(), func() (core.Result, error) {
		ranBaseline = true
		c.tel.BaselineRan()
		return r.exec(c, perf)
	})
	if !ranBaseline {
		endWait()
	}
	if err != nil {
		return core.Comparison{}, err
	}
	return core.Comparison{Subject: res, Perfect: pres}, nil
}

// simPhase labels what a launching simulation is for the live cell
// view: the run matching the cell's subject fingerprint is the
// subject, anything else the cell executes is a baseline.
func (r *runner) simPhase(c *cell, key string) string {
	if c.subjectKey() != key {
		return "baseline"
	}
	return "sim"
}

// noteJournalHit classifies a journal answer for telemetry: a hit on
// the cell's own subject fingerprint is a resume (the cell's
// simulation survives from a previous run or experiment), anything
// else is baseline dedupe.
func (r *runner) noteJournalHit(c *cell, key string) {
	if c.subjectKey() == key {
		c.tel.ResumeHit(key)
		r.opt.Meter.CellResumed()
	} else {
		c.tel.JournalHit()
	}
}
