// Command mtexcbench measures how long the simulator takes to produce
// the paper's numbers, and checks that it still produces the same
// numbers. See bench/README.md for the workloads, the metrics and the
// commands.
//
// Each workload runs in a child process of its own, one after another.
// The child resolves its inputs, runs one untimed warm-up cell, then
// repeats a fixed round of harness work, checking every round's output
// against the first round and the committed expected file. A traced
// run instead replays one round as direct calls into each layer with a
// span around every call, and profiles one harness round.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// envT0 carries the parent's clock, in Unix nanoseconds, from just
	// before it started the child, so set-up time includes process start.
	envT0 = "MTEXCBENCH_T0"
	// setupRuns is how many child processes measure set-up time per
	// workload: the measuring child and setupRuns-1 that only set up.
	setupRuns = 9
	// childTimeout bounds one child process.
	childTimeout = 170 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traceDir string // "" when not tracing
	out      string
	update   bool
	tiny     bool
	root     string
}

// childArgs renders the options a child process needs.
func (o options) childArgs(mode, workload string) []string {
	args := []string{"-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.traceDir != "" {
		args = append(args, "-trace", o.traceDir)
	}
	if o.update {
		args = append(args, "-update-expected")
	}
	if o.tiny {
		args = append(args, "-tiny")
	}
	return args
}

func (o options) size() size {
	if o.tiny {
		return tinySize
	}
	return fullSize
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtexcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all, one after another)")
	fs.Uint64Var(&o.seed, "seed", 1, "campaign seed of the seeded workload (fault-campaign)")
	fs.Float64Var(&o.seconds, "seconds", 22, "start timed rounds until this many seconds have passed (at least one round)")
	trace := fs.String("trace", "0", "0 measures end-to-end metrics; 1 or a directory makes a traced run that writes spans and CPU profiles there (1 means .bench_build/trace)")
	fs.StringVar(&o.out, "out", "", "write the JSON result here (default .bench_build/result.json)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
	fs.BoolVar(&o.update, "update-expected", false, "with -trace: rewrite the expected output files from this run")
	fs.BoolVar(&o.tiny, "tiny", false, "run at test size: 20k instructions per run, 2 trials per fault cell, no expected files")
	mode := fs.String("child", "", "internal: run one workload in this process (setup, measure or trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mtexcbench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	o.root = root
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), filepath.Join(root, "BENCHMARK.json"), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	switch *trace {
	case "0":
	case "1":
		o.traceDir = filepath.Join(root, ".bench_build", "trace")
	default:
		// Children run from the repository root, so pass them an
		// absolute path.
		if o.traceDir, err = filepath.Abs(*trace); err != nil {
			return fail(err)
		}
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if o.update && (o.traceDir == "" || o.tiny) {
		return fail(errors.New("-update-expected needs a traced run at full size"))
	}
	if *mode != "" {
		if err := child(*mode, o, stdout, stderr); err != nil {
			return fail(fmt.Errorf("%s: %w", o.workload, err))
		}
		return 0
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "result.json")
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	res, err := parent(names, o, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// findRoot returns the repository root: the nearest directory at or
// above the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = up
	}
}

// childResult is what a child process reports on its standard output.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	RoundS    []float64          `json:"round_s,omitempty"`
	AllocMB   []float64          `json:"alloc_mb,omitempty"`
	RSSP90MB  []float64          `json:"rss_p90_mb,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Check     string             `json:"check"`
	Work      float64            `json:"work,omitempty"` // per round, from the expected file
	Layer     map[string]float64 `json:"layer,omitempty"`
	Profile   string             `json:"profile,omitempty"`
}

// expected is a committed expected-output file: the round's rendered
// output followed by a "work <count> <unit>" line.
type expected struct {
	path string
	out  string
	work float64
}

func expectedPath(o options, b *bench) string {
	name := b.name
	if b.seeded {
		name += fmt.Sprintf("-seed%d", o.seed)
	}
	return filepath.Join(o.root, "bench", "mtexcbench", "expected", name+".txt")
}

// readExpected loads the workload's expected file, or returns nil when
// there is none for this seed or size.
func readExpected(o options, b *bench) (*expected, error) {
	if o.tiny {
		return nil, nil
	}
	p := expectedPath(o, b)
	data, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	text := string(data)
	i := strings.LastIndex(strings.TrimSuffix(text, "\n"), "\n")
	f := strings.Fields(text[i+1:])
	if i < 0 || len(f) != 3 || f[0] != "work" || f[2] != b.workUnit {
		return nil, fmt.Errorf("%s: last line is not \"work <count> %s\"", p, b.workUnit)
	}
	work, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return &expected{path: p, out: text[:i+1], work: work}, nil
}

// checker compares every round's output with the first round's and
// with the expected file, and keeps the first disagreement.
type checker struct {
	exp      *expected
	first    string
	mismatch string
	stderr   io.Writer
}

// check reports whether out is as expected, recording why not.
func (c *checker) check(label, out string) bool {
	if c.first == "" {
		c.first = out
	}
	var want, wantName string
	switch {
	case c.exp != nil:
		want, wantName = c.exp.out, c.exp.path
	default:
		want, wantName = c.first, "the first round"
	}
	if out == want {
		return true
	}
	c.fail(fmt.Sprintf("%s differs from %s at %s", label, wantName, firstDiff(out, want)))
	return false
}

// fail records the first disagreement found.
func (c *checker) fail(msg string) {
	if c.mismatch == "" {
		c.mismatch = msg
		fmt.Fprintln(c.stderr, "MISMATCH:", msg)
	}
}

func (c *checker) summary(seed string) string {
	switch {
	case c.mismatch != "":
		return "FAIL: " + c.mismatch
	case c.exp != nil:
		return "matches " + filepath.Base(c.exp.path)
	}
	return fmt.Sprintf("no expected file for seed %s at this size: round-to-round check only", seed)
}

// firstDiff locates the first line where got and want disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: got %d lines, want %d", min(len(g), len(w))+1, len(g), len(w))
}

func seedLabel(o options, b *bench) string {
	if b.seeded {
		return strconv.FormatUint(o.seed, 10)
	}
	return "n/a"
}

// child runs one workload in this process: set-up, then either nothing
// more ("setup"), timed harness rounds ("measure") or a traced run
// ("trace"), and prints a childResult as JSON.
func child(mode string, o options, stdout, stderr io.Writer) error {
	t0, err := strconv.ParseInt(os.Getenv(envT0), 10, 64)
	if err != nil {
		return fmt.Errorf("child started without %s: %w", envT0, err)
	}
	if err := os.MkdirAll(filepath.Join(o.root, ".bench_build"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b, err := newBench(o.workload, o.seed, o.size(), tmp)
	if err != nil {
		return err
	}
	exp, err := readExpected(o, b)
	if err != nil {
		return err
	}
	if err := b.warm(); err != nil {
		return fmt.Errorf("warm-up cell: %w", err)
	}
	res := childResult{SetupS: time.Since(time.Unix(0, t0)).Seconds()}
	if exp != nil {
		res.Work = exp.work
	}
	c := &checker{exp: exp, stderr: stderr}
	switch mode {
	case "setup":
	case "measure":
		if err := measure(b, o, c, &res, stderr); err != nil {
			return err
		}
	case "trace":
		if err := traceRun(b, o, c, &res); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	res.Check = c.summary(seedLabel(o, b))
	return json.NewEncoder(stdout).Encode(res)
}

// measure repeats the harness round, each worker starting its next cell
// when its last one finishes, until o.seconds have passed. Every round
// starts from a collected heap returned to the operating system, so
// garbage and resident pages left by one round do not bill the next,
// and samples the resident set while it runs.
func measure(b *bench, o options, c *checker, res *childResult, stderr io.Writer) error {
	par := min(runtime.NumCPU(), 2)
	start := time.Now()
	var ms runtime.MemStats
	for r := 1; r == 1 || time.Since(start).Seconds() < o.seconds; r++ {
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		rss := startRSS()
		t := time.Now()
		out, err := b.harness(par)
		d := time.Since(t)
		rssMB, rerr := rss.finish()
		if rerr != nil {
			return rerr
		}
		runtime.ReadMemStats(&ms)
		res.RoundS = append(res.RoundS, d.Seconds())
		res.AllocMB = append(res.AllocMB, float64(ms.TotalAlloc-alloc0)/(1<<20))
		res.RSSP90MB = append(res.RSSP90MB, percentile(rssMB, 0.9))
		res.Attempted += b.cells
		failed := failedCells(err, b.cells)
		if err != nil {
			fmt.Fprintf(stderr, "%s round %d: %v\n", b.name, r, err)
		}
		if !c.check(fmt.Sprintf("round %d", r), out) {
			failed = b.cells
		}
		res.Failed += failed
		fmt.Fprintf(stderr, "%s round %d: %.3f s\n", b.name, r, d.Seconds())
	}
	return nil
}

// traceRun profiles one harness round at parallelism 1, then replays
// the round as direct per-call code under the tracer and checks that
// both rendered the same output.
func traceRun(b *bench, o options, c *checker, res *childResult) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	res.Profile = filepath.Join(o.traceDir, "cpu-"+b.name+".pprof")
	pf, err := os.Create(res.Profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	t := time.Now()
	out, herr := b.harness(1)
	harnessNs := time.Since(t).Nanoseconds()
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}
	// Updating rewrites the expected file from this run, so the harness
	// round is checked only against the per-call round below.
	if o.update {
		c.exp = nil
	}
	res.Attempted += b.cells
	failed := failedCells(herr, b.cells)
	if !c.check("harness round", out) {
		failed = b.cells
	}
	res.Failed += failed

	tr := newTracer()
	tround, err := b.traced(tr)
	tracedNs := time.Since(tr.t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	res.Attempted += b.cells
	if !c.check("traced per-call round", tround.out) {
		res.Failed += b.cells
	}
	if c.exp != nil && tround.work != c.exp.work {
		c.fail(fmt.Sprintf("traced round did %g %s, %s says %g", tround.work, b.workUnit, c.exp.path, c.exp.work))
		res.Failed += b.cells
	}
	if o.update && c.mismatch == "" {
		p := expectedPath(o, b)
		if err := os.WriteFile(p, []byte(fmt.Sprintf("%swork %.0f %s\n", out, tround.work, b.workUnit)), 0o644); err != nil {
			return err
		}
		c.exp = &expected{path: p, out: out, work: tround.work}
	}
	res.Layer = make(map[string]float64)
	for _, m := range layerMetrics() {
		res.Layer[m.name] = 0
	}
	spanMetrics(tr.spans, tracedNs, spanNames, p90Spans, res.Layer)
	for k, v := range tround.layer {
		res.Layer[k] = v
	}
	res.Layer["trace.overhead_frac"] = float64(tracedNs)/float64(harnessNs) - 1
	return tr.write(filepath.Join(o.traceDir, "spans-"+b.name+".json"))
}

// spawn runs this program as a child process for one workload and
// decodes its report. It waits for the child to exit.
func spawn(mode, name string, o options, stderr io.Writer) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, o.childArgs(mode, name)...)
	cmd.Dir = o.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", envT0, time.Now().UnixNano()))
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s child for %s: %w", mode, name, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s child for %s: bad report: %w", mode, name, err)
	}
	return res, nil
}

// result is the JSON result of a run, the input of -compare.
type result struct {
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string             `json:"name"`
	Seed      string             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Check     string             `json:"check"`
	Metrics   map[string]samples `json:"metrics,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// samples are one end-to-end metric's measurements in one run.
type samples struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return len(r.Workloads) > 0
}

// parent runs each named workload in child processes, one after
// another, prints every metric and writes the JSON result. Its last
// line of output is the one-object summary.
func parent(names []string, o options, stdout, stderr io.Writer) (*result, error) {
	res := &result{Seed: o.seed, Trace: o.traceDir != ""}
	for _, name := range names {
		b, err := newBench(name, o.seed, o.size(), "")
		if err != nil {
			return nil, err
		}
		var w workloadResult
		if res.Trace {
			w, err = traceWorkload(b, o, stderr)
		} else {
			w, err = measureWorkload(b, o, stderr)
		}
		if err != nil {
			return nil, err
		}
		printWorkload(stdout, w)
		res.Workloads = append(res.Workloads, w)
	}
	if err := writeJSON(o.out, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "result written to %s\n", o.out)
	line, err := json.Marshal(summaryLine(res))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// traceWorkload runs the traced child for one workload and folds its
// CPU profile.
func traceWorkload(b *bench, o options, stderr io.Writer) (workloadResult, error) {
	w := workloadResult{Name: b.name, Seed: seedLabel(o, b)}
	cr, err := spawn("trace", b.name, o, stderr)
	if err != nil {
		return w, err
	}
	if err := foldProfile(cr.Profile, o.root, cr.Layer); err != nil {
		return w, err
	}
	w.Attempted, w.Failed, w.Check, w.Layer = cr.Attempted, cr.Failed, cr.Check, cr.Layer
	return w, nil
}

// measureWorkload runs the measuring child for one workload between
// the set-up children, half of them before it and half after, so that a
// slow spell of a shared host does not bias every set-up sample at once.
func measureWorkload(b *bench, o options, stderr io.Writer) (workloadResult, error) {
	w := workloadResult{Name: b.name, Seed: seedLabel(o, b)}
	var setups []float64
	probe := func() error {
		cr, err := spawn("setup", b.name, o, stderr)
		setups = append(setups, cr.SetupS)
		return err
	}
	for i := 0; i < (setupRuns-1)/2; i++ {
		if err := probe(); err != nil {
			return w, err
		}
	}
	cr, err := spawn("measure", b.name, o, stderr)
	if err != nil {
		return w, err
	}
	for i := (setupRuns - 1) / 2; i < setupRuns-1; i++ {
		if err := probe(); err != nil {
			return w, err
		}
	}
	w.Attempted, w.Failed, w.Check = cr.Attempted, cr.Failed, cr.Check
	values := map[string][]float64{
		"round_s":    cr.RoundS,
		"setup_s":    append(setups, cr.SetupS),
		"alloc_mb":   cr.AllocMB,
		"rss_p90_mb": cr.RSSP90MB,
	}
	w.Metrics = make(map[string]samples)
	for _, m := range endToEnd {
		w.Metrics[m.name] = samples{m.unit, values[m.name]}
	}
	if cr.Work > 0 {
		rates := make([]float64, len(cr.RoundS))
		for i, s := range cr.RoundS {
			rates[i] = cr.Work / b.rateDiv / s
		}
		w.Metrics[b.rateName] = samples{b.rateUnit, rates}
	}
	return w, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "%s seed %s: %d cells attempted, %d failed; %s\n", r.Name, r.Seed, r.Attempted, r.Failed, r.Check)
	for _, name := range sortedKeys(r.Metrics) {
		s := r.Metrics[name]
		q1, med, q3 := quartiles(s.Values)
		fmt.Fprintf(w, "%s %s %.6g %s (median %.6g, q1 %.6g, q3 %.6g, n %d)\n",
			r.Name, name, med, s.Unit, med, q1, q3, len(s.Values))
	}
	for _, name := range sortedKeys(r.Layer) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Name, name, r.Layer[name], layerUnit(name))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line a run prints: cells attempted and
// failed, and the median of each end-to-end metric (or each per-layer
// metric of a traced run). With more than one workload, metric names
// take a "<workload>/" prefix.
func summaryLine(res *result) any {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: res.correct(), Metrics: make(map[string]metricValue)}
	for _, w := range res.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		key := func(name string) string {
			if len(res.Workloads) > 1 {
				return w.Name + "/" + name
			}
			return name
		}
		for _, m := range endToEnd {
			if s, ok := w.Metrics[m.name]; ok {
				line.Metrics[key(m.name)] = metricValue{median(s.Values), s.Unit}
			}
		}
		for name, v := range w.Layer {
			line.Metrics[key(name)] = metricValue{v, layerUnit(name)}
		}
	}
	return line
}
