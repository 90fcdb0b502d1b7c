package cpu

import "fmt"

// InjectedBug selects a deliberately seeded defect in the exception
// machinery. The differential-fuzzing subsystem uses these to prove
// the oracle catches architecturally visible mechanism bugs end to
// end: a machine with a bug injected must diverge from the reference
// emulator, and the failing program must shrink to a small repro.
//
// Bugs live behind this hook — never behind Config — so fingerprinted
// experiment configurations cannot accidentally enable one. Set
// Machine.InjectBug after New and before Run.
type InjectedBug uint8

const (
	// BugNone runs the machine as built.
	BugNone InjectedBug = iota
	// BugResumeSkip makes the OS page-fault service resume execution
	// at the instruction after the faulting one, silently skipping its
	// re-execution — the classic off-by-one in the handler's resume-PC
	// bookkeeping. The skipped instruction's destination register (or
	// store) is lost, which only a reference-state comparison notices.
	BugResumeSkip
)

// ParseInjectedBug resolves a bug name from the mtexc-fuzz -inject
// flag.
func ParseInjectedBug(name string) (InjectedBug, error) {
	switch name {
	case "", "none":
		return BugNone, nil
	case "resume-skip":
		return BugResumeSkip, nil
	}
	return BugNone, fmt.Errorf("cpu: unknown injected bug %q (have: none, resume-skip)", name)
}
