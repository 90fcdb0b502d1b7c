// Emulation: the paper's Section 6 generalized mechanism. The POPC
// instruction is removed from the hardware and emulated by a software
// handler that reads the excepting instruction's source value from a
// privileged register and writes its destination with WRTDEST —
// traditionally (trap) or in a spawned handler thread.
//
//	go run ./examples/emulation
package main

import (
	"fmt"
	"log"

	"mtexc/internal/core"
	"mtexc/internal/isa/asm"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

func main() {
	fmt.Println("generated POPC emulation handler:")
	fmt.Print(asm.Disassemble(vm.GenerateEmulationHandler().Code))
	fmt.Println()

	w := workload.NewPopcount(16) // one POPC per ~200 instructions

	// emulating is the machine with POPC removed from the hardware,
	// handled by mech with idle spare contexts.
	emulating := func(mech core.Mechanism, idle int, quick bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.MaxInsts = 400_000
		cfg.Mech = mech
		cfg.Contexts = 1 + idle
		cfg.EmulatePopc = true
		cfg.QuickStart = quick
		return cfg
	}

	// Baseline: the traditional machine's perfect-TLB twin, which
	// executes POPC in hardware.
	baseRes, err := core.Run(core.PerfectOf(emulating(core.MechTraditional, 0, false), 1), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %10s %8s %12s\n", "configuration", "cycles", "IPC", "penalty/emu")
	fmt.Printf("%-24s %10d %8.2f %12s\n", "hardware popc", baseRes.Cycles, baseRes.IPC, "-")

	run := func(name string, mech core.Mechanism, idle int, quick bool) {
		res, err := core.Run(emulating(mech, idle, quick), w)
		if err != nil {
			log.Fatal(err)
		}
		emus := res.Stats.Get("emu.committed")
		penalty := float64(int64(res.Cycles)-int64(baseRes.Cycles)) / float64(emus)
		fmt.Printf("%-24s %10d %8.2f %12.1f\n", name, res.Cycles, res.IPC, penalty)
	}
	run("traditional emulation", core.MechTraditional, 0, false)
	run("multithreaded emulation", core.MechMultithreaded, 1, false)
	run("quick-start emulation", core.MechMultithreaded, 1, true)

	fmt.Println("\nThe handler reads SRCVAL0, popcounts via the PAL byte table,")
	fmt.Println("and WRTDEST completes the faulting instruction in place — no")
	fmt.Println("squash, no refetch, consumers wake through normal dataflow.")
}
