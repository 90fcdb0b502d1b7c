package core

import (
	"testing"

	"mtexc/internal/isa"
	"mtexc/internal/mem"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.MaxInsts = 50_000
	cfg.MaxCycles = 20_000_000
	return cfg
}

func TestRunRejectsEmptyWorkloadList(t *testing.T) {
	if _, err := Run(quickCfg()); err == nil {
		t.Error("Run with no workloads succeeded")
	}
}

func TestRunSingleWorkload(t *testing.T) {
	cfg := quickCfg()
	cfg.Mech = MechMultithreaded
	b, err := workload.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppInsts < cfg.MaxInsts {
		t.Errorf("retired %d < budget %d", res.AppInsts, cfg.MaxInsts)
	}
	if res.DTLBMisses == 0 {
		t.Error("compress took no TLB misses")
	}
}

func TestCompareMetrics(t *testing.T) {
	cfg := quickCfg()
	cfg.Mech = MechTraditional
	b, err := workload.ByName("vor")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Perfect.DTLBMisses != 0 {
		t.Error("perfect baseline took TLB misses")
	}
	if cmp.Subject.Cycles <= cmp.Perfect.Cycles {
		t.Errorf("traditional (%d cycles) not slower than perfect (%d)",
			cmp.Subject.Cycles, cmp.Perfect.Cycles)
	}
	if p := cmp.PenaltyPerMiss(); p <= 0 {
		t.Errorf("penalty/miss = %.2f, want positive", p)
	}
	if rel := cmp.RelativeTLBTime(); rel <= 0 || rel >= 1 {
		t.Errorf("relative TLB time = %.3f, want in (0,1)", rel)
	}
}

func TestPenaltyPerMissZeroMisses(t *testing.T) {
	c := Comparison{}
	if c.PenaltyPerMiss() != 0 {
		t.Error("zero-miss penalty must be 0")
	}
}

// inlineWorkload adapts a hand-built program to the Workload
// interface, demonstrating (and testing) the custom-workload path the
// examples use.
type inlineWorkload struct {
	code []isa.Instruction
}

func (w inlineWorkload) Name() string { return "inline" }

func (w inlineWorkload) Build(phys *mem.Physical, asn uint8) (*vm.Image, error) {
	as := vm.NewAddressSpace(phys, asn, 1<<16)
	img := &vm.Image{Name: "inline", Code: w.code, Space: as}
	if err := img.Load(phys); err != nil {
		return nil, err
	}
	return img, nil
}

func TestRunCustomWorkload(t *testing.T) {
	cfg := quickCfg()
	cfg.Mech = MechPerfect
	cfg.MaxInsts = 100
	w := inlineWorkload{code: []isa.Instruction{
		{Op: isa.OpLdi, Rd: 1, Imm: 7},
		{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.OpHalt},
	}}
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppInsts != 3 {
		t.Errorf("retired %d instructions, want 3", res.AppInsts)
	}
}

func TestMechanismStrings(t *testing.T) {
	for mech, want := range map[Mechanism]string{
		MechPerfect:       "perfect",
		MechTraditional:   "traditional",
		MechMultithreaded: "multithreaded",
		MechHardware:      "hardware",
	} {
		if mech.String() != want {
			t.Errorf("%d.String() = %q, want %q", mech, mech.String(), want)
		}
	}
}

func TestCompareMultiprogrammed(t *testing.T) {
	cfg := quickCfg()
	cfg.Mech = MechMultithreaded
	cfg.Contexts = 3
	w1, err := workload.ByName("adm")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(cfg, w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Subject.AppInsts < cfg.MaxInsts {
		t.Errorf("mix retired %d < %d", cmp.Subject.AppInsts, cfg.MaxInsts)
	}
	if cmp.Subject.DTLBMisses == 0 {
		t.Error("mix took no TLB misses")
	}
	if p := cmp.PenaltyPerMiss(); p <= 0 {
		t.Errorf("mix penalty %f not positive", p)
	}
}

func TestRunRejectsTooManyWorkloads(t *testing.T) {
	cfg := quickCfg()
	cfg.Contexts = 1
	w1, _ := workload.ByName("adm")
	w2, _ := workload.ByName("mph")
	if _, err := Run(cfg, w1, w2); err == nil {
		t.Error("two workloads on one context accepted")
	}
}
