package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// perfectReads are the cpu.Config fields a perfect-TLB machine reads,
// which core.PerfectOf keeps from the subject. Mech and Contexts it
// derives: a perfect TLB, one context per application thread.
var perfectReads = []string{
	"Width", "WindowSize", "FetchStages", "DecodeStages", "ScheduleStages",
	"RegReadStages", "FetchBufferCap",
	"IntALUs", "IntMuls", "FPAdds", "FPMuls", "FPDivs", "MemPorts",
	"LatIntALU", "LatIntMul", "LatIntDiv", "LatFPAdd", "LatFPMul", "LatFPDiv", "LatFPSqrt",
	"Hier", "PageTable", "BranchPredictor", "RetireWidth", "TrapUnaligned",
	"CheckInvariants", "SampleInterval", "MaxInsts", "MaxCycles", "NoProgressLimit",
}

// perfectResets are the cpu.Config fields a perfect-TLB machine never
// reads, which core.PerfectOf resets to their DefaultConfig values,
// each with the values TestPerfectBaselineIgnoresIdleContexts runs a
// perfect machine under. FetchRoundRobin is reset for one thread only:
// with more, the chooser picks among them.
var perfectResets = []struct {
	field  string
	values []any
}{
	{"DTLBEntries", []any{32, 128}},
	{"DTLBWays", []any{4}},
	// The last handler outgrows its 8 KB PAL frame, shifting every
	// frame the workload loads into.
	{"Handler", []any{vm.HandlerConfig{ExtraPrologue: 13, ExtraDependent: 6}, vm.HandlerConfig{}, vm.HandlerConfig{ExtraPrologue: 2100}}},
	{"QuickStart", []any{true}},
	{"MaxWalkers", []any{1}},
	{"Limit", []any{core.LimitNoExecBW, core.LimitNoWindow, core.LimitNoFetchBW, core.LimitInstantFetch}},
	{"NoHandlerFetchPriority", []any{true}},
	{"NoWindowReservation", []any{true}},
	{"NoRelink", []any{true}},
	{"FetchRoundRobin", []any{true}},
	{"EmulatePopc", []any{true}},
	{"OSFaultCycles", []any{uint64(0), uint64(5000)}},
}

// Every cpu.Config field is filed as read by a perfect machine, reset,
// or derived, so a new field fails here until someone files it; and
// core.PerfectOf keeps each read field, resets each reset field to its
// default and derives the other two.
func TestPerfectBaselineFilesEveryField(t *testing.T) {
	filed := map[string]string{"Mech": "derived", "Contexts": "derived"}
	for _, f := range perfectReads {
		filed[f] = "read"
	}
	for _, f := range perfectResets {
		filed[f.field] = "reset"
	}
	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; filed[name] == "" {
			t.Errorf("cpu.Config.%s is not filed: add it to perfectReads or, if a perfect run cannot depend on it, to perfectResets and core.PerfectOf", name)
		}
	}
	if len(filed) != typ.NumField() {
		t.Errorf("%d fields filed, cpu.Config has %d", len(filed), typ.NumField())
	}

	def := reflect.ValueOf(core.DefaultConfig())
	for _, f := range perfectResets {
		for _, v := range f.values {
			cfg := core.DefaultConfig()
			reflect.ValueOf(&cfg).Elem().FieldByName(f.field).Set(reflect.ValueOf(v))
			got := reflect.ValueOf(core.PerfectOf(cfg, 1)).FieldByName(f.field).Interface()
			if want := def.FieldByName(f.field).Interface(); got != want {
				t.Errorf("PerfectOf(%s=%v).%s = %v, want the default %v", f.field, v, f.field, got, want)
			}
		}
	}

	cfg := core.DefaultConfig()
	subj := reflect.ValueOf(&cfg).Elem()
	for _, f := range perfectReads {
		perturb(subj.FieldByName(f))
	}
	cfg.FetchRoundRobin = true
	for _, threads := range []int{1, 3} {
		p := core.PerfectOf(cfg, threads)
		perf := reflect.ValueOf(p)
		for _, f := range perfectReads {
			if got, want := perf.FieldByName(f).Interface(), subj.FieldByName(f).Interface(); got != want {
				t.Errorf("PerfectOf(cfg, %d).%s = %v, want the subject's %v", threads, f, got, want)
			}
		}
		if p.Mech != core.MechPerfect || p.Contexts != threads {
			t.Errorf("PerfectOf(cfg, %d): Mech %v, Contexts %d", threads, p.Mech, p.Contexts)
		}
		if p.FetchRoundRobin != (threads > 1) {
			t.Errorf("PerfectOf(cfg, %d).FetchRoundRobin = %t", threads, p.FetchRoundRobin)
		}
	}
}

// perturb moves a scalar, or every scalar of a struct, off its value.
func perturb(v reflect.Value) {
	switch {
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "x")
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(v.Field(i))
		}
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// A perfect TLB never misses and never spawns a handler, so neither
// the idle contexts core.PerfectOf drops nor the fields it resets can
// move a baseline. Perfect cycles and every counter are the same with
// 0, 1 and 3 idle contexts, over the suite, Figure 7's mixes and the
// SharedL2 cluster shapes; and the whole snapshot (counters,
// histograms, slots, spans) is the same under every value
// perfectResets lists, over the suite and the POPC workload.
func TestPerfectBaselineIgnoresIdleContexts(t *testing.T) {
	insts := uint64(100_000)
	if testing.Short() {
		insts = 8_000
	}
	r := newRunner(Options{Insts: insts}, "idle")
	perfect := r.baseConfig(core.MechPerfect, 1, 0)
	byName := func(names ...string) []core.Workload {
		loads := make([]core.Workload, len(names))
		for i, n := range names {
			b, err := workload.ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			loads[i] = b
		}
		return loads
	}
	var jobs []job
	for _, b := range workload.All() {
		jobs = append(jobs, exactJob(perfect, b))
	}
	for _, mix := range PaperMixes {
		jobs = append(jobs, exactJob(perfect, byName(mix[:]...)...))
	}
	for _, s := range l2Shapes {
		loads, err := clusterLoads(l2Measured, s.corunner, s.cores)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, clusterJob(perfect, loads))
	}
	for _, j := range jobs {
		name := strings.Join(loadNames(j.loads), "-")
		if j.cluster {
			name = fmt.Sprintf("%dc:%s", len(j.loads), name)
		}
		t.Run(name, func(t *testing.T) {
			var want core.Result
			for _, idle := range []int{0, 1, 3} {
				jj := j
				jj.cfg.Contexts = j.threads() + idle
				res, _, err := jj.sim(context.Background(), jj, nil)
				if err != nil {
					t.Fatalf("%d idle: %v", idle, err)
				}
				if idle == 0 {
					want = res
					continue
				}
				if res.Cycles != want.Cycles || res.AppInsts != want.AppInsts {
					t.Errorf("%d idle: %d cycles, %d insts; want %d, %d", idle, res.Cycles, res.AppInsts, want.Cycles, want.AppInsts)
				}
				if got, exp := counterMap(res.Stats), counterMap(want.Stats); !reflect.DeepEqual(got, exp) {
					t.Errorf("%d idle: counters differ\n got %v\nwant %v", idle, got, exp)
				}
			}
		})
	}

	loads := []core.Workload{workload.NewPopcount(4)}
	for _, b := range workload.All() {
		loads = append(loads, b)
	}
	snapshot := func(t *testing.T, cfg core.Config, w core.Workload) []byte {
		res, err := core.Run(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		// The metadata comes from one configuration, so the bytes
		// compare only what the run produced.
		b, err := json.Marshal(core.Snapshot(perfect, []string{w.Name()}, res))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := make([][]byte, len(loads))
	for i, w := range loads {
		want[i] = snapshot(t, perfect, w)
	}
	for _, f := range perfectResets {
		for _, v := range f.values {
			t.Run(fmt.Sprintf("%s=%v", f.field, v), func(t *testing.T) {
				t.Parallel()
				cfg := perfect
				reflect.ValueOf(&cfg).Elem().FieldByName(f.field).Set(reflect.ValueOf(v))
				for i, w := range loads {
					if got := snapshot(t, cfg, w); !bytes.Equal(got, want[i]) {
						t.Errorf("%s: the perfect run moved\n got %s\nwant %s", w.Name(), got, want[i])
					}
				}
			})
		}
	}
}

// TestSampledFailureRepro: a failed sampled cell reports its
// fingerprint and a repro line that re-runs it in sampled mode.
func TestSampledFailureRepro(t *testing.T) {
	t.Setenv(FailCellEnv, "Figure5Sampled:1")
	s, err := Figure5Sampled(Options{Insts: 120_000, Benchmarks: []string{"mph"}}, testSpec)
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 1 {
		t.Fatalf("err = %v, want one failed cell", err)
	}
	if !s.Est.FailedAt(0, 1) || !s.CI.FailedAt(0, 1) {
		t.Error("failed sampled cell not marked FAIL on both tables")
	}
	ce := ee.Cells[0]
	if ce.Fingerprint == "" {
		t.Error("sampled cell error lost its fingerprint")
	}
	if repro := ce.Repro(); !strings.Contains(repro, "-bench mph -mech multithreaded") ||
		!strings.HasSuffix(repro, "-sample "+testSpec.String()) {
		t.Errorf("sampled repro = %q, want an mtexcsim -sample line", repro)
	}
}

// clusterLivelock runs a two-core cluster cell whose core 0 page-faults
// on its first data touch and, with the OS service time effectively
// infinite, never retires again — a real cluster watchdog abort.
func clusterLivelock(t *testing.T) (*runner, *cell, error) {
	t.Helper()
	r := newRunner(Options{Insts: 30_000}, "SharedL2")
	cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
	cfg.OSFaultCycles = 1 << 40
	cfg.NoProgressLimit = 20_000
	cmp, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	mph, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	loads := []core.Workload{&workload.Faulty{Inner: cmp, Fraction: 0.5, Seed: 7}, mph}
	c := &cell{index: 0, exp: r.exp}
	_, err = r.exec(c, clusterJob(cfg, loads))
	if err == nil {
		t.Fatal("stalled cluster completed")
	}
	return r, c, err
}
