package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"mtexc/internal/core"
	"mtexc/internal/mem"
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
	// row, when non-nil, is the grid row whose values the job shares
	// (rowValues): its machines take the row's lent images
	// (machineLoads), and a sampled job the row's functional pass.
	row *rowValues
	sim simFunc
}

// inRow returns j sharing row's values.
func (j job) inRow(row *rowValues) job {
	j.row = row
	return j
}

// machineLoads returns the workloads j's machines load: j.loads
// themselves, or, in a row that lends its images, loads that borrow
// them (lentLoad). Fingerprints, names and repro lines read j.loads.
func (j job) machineLoads() []core.Workload {
	if j.row == nil {
		return j.loads
	}
	loads := make([]core.Workload, len(j.loads))
	for i, w := range j.loads {
		loads[i] = lentLoad{Workload: w, row: j.row}
	}
	return loads
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
	res, err := core.RunObserved(ctx, j.cfg, probe, j.machineLoads()...)
	return res, res.AppInsts, err
}

// key fingerprints the job. The mode prefix keeps the cluster and
// sampled spaces disjoint from exact runs (whose prefix is empty), so
// one journal holds all three. A sampled entry holds one
// configuration's per-window counts; its prefix, windows/, differs
// from the sample/ of the paired estimates journals held before, so
// an old estimate is never read as a window record. A cluster entry's
// merged statistics end when core 0 finishes (simCluster); its
// prefix, cluster-core0/, differs from the cluster/ of the
// full-cluster statistics journals held before.
func (j job) key() string {
	prefix := ""
	switch {
	case j.cluster:
		prefix = fmt.Sprintf("cluster-core0/%d|", len(j.loads))
	case j.sample != nil:
		prefix = "windows/" + j.sample.String() + "|"
	}
	return runKey(prefix, j.cfg, j.loads)
}

// threads is the number of application threads on each machine of
// the job: one per workload on a single machine, one per core of a
// cluster.
func (j job) threads() int {
	if j.cluster {
		return 1
	}
	return len(j.loads)
}

// modelVersion names the simulator's timing model in every run key.
// Bump it with any change that moves a simulated number, so a journal
// written before the change is re-simulated rather than replayed.
// TestGoldenModelVersion fails when a committed golden changes
// and the version does not.
const modelVersion = 1

// runKey fingerprints one simulation: the model version, the run-mode
// prefix, the full configuration and the workload identities.
// Everything that affects the deterministic simulator's output is a
// value field of Config or part of a workload's built image, so the
// formatted struct and the image hashes are a faithful identity.
func runKey(prefix string, cfg core.Config, loads []core.Workload) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("model%d|%s%+v|%s",
		modelVersion, prefix, cfg, strings.Join(workloadKeys(loads), ","))))
	return hex.EncodeToString(sum[:8])
}

// keyer is implemented by workloads whose Name does not capture their
// full identity (density, fault fraction, page-table organization).
type keyer interface{ Key() string }

// imageHashes memoizes imageHash per workload identity for the life of
// the process: building and hashing a suite workload takes tens of
// milliseconds, which every key computation would otherwise pay.
var imageHashes flight[string]

// workloadKeys renders the workload identities a fingerprint covers:
// each workload's key (its name when it has none) and a hash of the
// image it builds, so a generator change re-keys every run of the
// workloads it alters.
func workloadKeys(loads []core.Workload) []string {
	keys := make([]string, len(loads))
	for i, w := range loads {
		id := workloadID(w)
		h, err := imageHashes.get(id, func() (string, error) { return imageHash(w) })
		if err != nil {
			h = "unbuilt" // the simulation's own build reports the failure
		}
		keys[i] = id + "@" + h
	}
	return keys
}

// workloadID is w's identity: its key, or its name when it has none.
func workloadID(w core.Workload) string {
	if k, ok := w.(keyer); ok {
		return k.Key()
	}
	return w.Name()
}

// imageHash fingerprints the program w builds at ASN 1: its code,
// entry point, initial registers and the contents of every mapped page
// (vm.AddressSpace.ContentHash).
func imageHash(w core.Workload) (string, error) {
	img, err := w.Build(mem.NewPhysical(), 1)
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, 12*len(img.Code)+64)
	for _, in := range img.Code {
		b = append(b, byte(in.Op), in.Rd, in.Ra, in.Rb)
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
	}
	b = binary.LittleEndian.AppendUint64(b, img.CodeVA)
	b = binary.LittleEndian.AppendUint64(b, img.EntryVA)
	for file, regs := range [2]map[uint8]uint64{img.InitInt, img.InitFP} {
		for r := 0; r < 256; r++ {
			if v, ok := regs[uint8(r)]; ok {
				b = append(b, byte(file), byte(r))
				b = binary.LittleEndian.AppendUint64(b, v)
			}
		}
	}
	b = binary.LittleEndian.AppendUint64(b, img.Space.ContentHash())
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// exec is the single simulation entry point of the harness, the same
// sequence for every run mode: fingerprint the job, let the owning
// cell describe itself for failure reports, fire any injected
// failure, and answer from the journal — from its file when it was
// resumed with the run, from its store when a job of this process
// already ran it (or is running it: exec waits), and otherwise by
// simulating it once (simulate).
func (r *runner) exec(c *cell, j job) (core.Result, error) {
	key := j.key()
	c.describe(j, key)
	subject := key == c.subjectKey()
	// The injection hook fires on the cell's subject only, after
	// describe (so the failure report carries the configuration and a
	// repro command) and before the journal answers (so it fires on
	// resumed and repeated runs too). A baseline never fires it: the
	// store hands one baseline to every cell that shares it, so a panic
	// there would fail them all.
	if r.failSpec != "" && subject && injectedFailure(r.exp, r.failSpec, c.index) {
		panic(fmt.Sprintf("injected failure (%s=%q)", FailCellEnv, r.failSpec))
	}
	journal := r.opt.Journal
	if res, ok := journal.lookup(key); ok {
		if subject {
			c.tel.ResumeHit(key)
			r.opt.Meter.CellResumed()
		} else {
			c.tel.JournalHit()
		}
		return res, nil
	}
	var endWait func()
	if !subject {
		endWait = c.tel.BaselineWaitBegin()
	}
	ran := false
	res, err := journal.runs.get(key, func() (core.Result, error) {
		ran = true
		return r.simulate(c, j, key, subject)
	})
	// A subject another job ran is a journal hit; a baseline another
	// cell ran charges this cell's wait on it.
	switch {
	case ran:
	case subject:
		journal.hits.Add(1)
		c.tel.JournalHit()
	default:
		endWait()
	}
	return res, err
}

// simulate runs j, fingerprinted key, under the configured context
// and per-cell deadline with a live probe attached, and journals the
// result. A run that is not the cell's subject is a baseline.
func (r *runner) simulate(c *cell, j job, key string, subject bool) (core.Result, error) {
	ctx := r.opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if r.opt.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opt.CellTimeout)
		defer cancel()
	}
	phase := "sim"
	if !subject {
		phase = "baseline"
		c.tel.BaselineRan()
	}
	probe := c.tel.SimStarted(phase)
	res, insts, err := j.sim(ctx, j, probe)
	c.tel.SimFinished(insts, res.Cycles, res.Stats, err != nil)
	r.opt.Meter.AddSimInsts(insts)
	if err != nil {
		return res, err
	}
	return res, r.opt.Journal.record(c.tel, r.exp, key, j.cfg, loadNames(j.loads), res)
}

// compare runs the subject job and its perfect-TLB baseline — the same
// job under core.PerfectOf — over the same instruction stream. Both go
// through the journal's store, so every cell sharing a workload set
// and machine shape, in any experiment on the journal, shares one
// baseline run. The first cell to ask for a baseline claims it and
// runs it before its subject; a cell whose baseline is already claimed
// runs its subject first and collects the baseline afterwards, so it
// overlaps its subject with the claimant's baseline instead of
// waiting on it.
func (r *runner) compare(c *cell, subj job) (core.Comparison, error) {
	// The subject is described before anything runs, so failure
	// reports, the live view and fault injection name it, never the
	// baseline.
	c.describe(subj, subj.key())
	perf := subj
	perf.cfg = core.PerfectOf(subj.cfg, subj.threads())
	var res, pres core.Result
	var err error
	if r.opt.Journal.runs.claim(perf.key()) {
		if pres, err = r.exec(c, perf); err == nil {
			res, err = r.exec(c, subj)
		}
	} else if res, err = r.exec(c, subj); err == nil {
		pres, err = r.exec(c, perf)
	}
	if err != nil {
		return core.Comparison{}, err
	}
	loads := strings.Join(loadNames(subj.loads), "-")
	if subj.sample != nil {
		// A sampled Result totals the measured windows, where an IPC
		// would not describe the run.
		r.log("  %-14s %-13s %9d window cycles  %6d fills%s",
			loads, label(subj.cfg), res.Cycles, res.DTLBMisses, r.opt.Meter.Suffix())
	} else {
		r.log("  %-14s %-13s %9d cycles  %6d fills  IPC %.2f%s",
			loads, label(subj.cfg), res.Cycles, res.DTLBMisses, res.IPC, r.opt.Meter.Suffix())
	}
	return core.Comparison{Subject: res, Perfect: pres}, nil
}
