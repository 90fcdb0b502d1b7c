package cpu

import (
	"fmt"

	"mtexc/internal/isa"
)

// FaultClass selects which machine state class a transient fault
// targets. The classes mirror the state the paper's mechanisms keep
// live across contexts: the speculative architectural register files,
// the handler-context snapshots and handler-visible registers, the
// shared TLB array, and the instruction-window payload fields.
type FaultClass uint8

const (
	// FaultNone arms nothing: the plan is disarmed on its first
	// eligible cycle without touching any state. Property tests use it
	// to demand byte-identical results against an unarmed machine.
	FaultNone FaultClass = iota
	// FaultArchReg flips one bit of one architectural register (int or
	// FP) of a live application context's speculative register file.
	FaultArchReg
	// FaultHandlerCtx flips one bit of live exception-handler state: a
	// handlerCtx snapshot field (restart PC, master PC, fault VPN/VA)
	// or a handler-visible register — the handler thread's integer and
	// privileged registers (multithreaded), the master thread's PAL
	// shadow registers and privileged registers (traditional).
	FaultHandlerCtx
	// FaultTLB flips one bit of a currently valid TLB entry: its valid
	// bit, VPN tag, PFN, or ASN (see vm.TLB.CorruptEntry).
	FaultTLB
	// FaultWindow flips one bit of an in-window instruction's payload:
	// its result, effective address, store value, or computed next PC.
	FaultWindow
)

var faultClassNames = [...]string{
	FaultNone:       "none",
	FaultArchReg:    "reg",
	FaultHandlerCtx: "handler",
	FaultTLB:        "tlb",
	FaultWindow:     "window",
}

func (c FaultClass) String() string {
	if int(c) < len(faultClassNames) {
		return faultClassNames[c]
	}
	return fmt.Sprintf("FaultClass(%d)", uint8(c))
}

// ParseFaultClass resolves a class name (as printed by String).
func ParseFaultClass(s string) (FaultClass, error) {
	for i, n := range faultClassNames {
		if s == n {
			return FaultClass(i), nil
		}
	}
	return FaultNone, fmt.Errorf("cpu: unknown fault class %q (want reg|handler|tlb|window|none)", s)
}

// FaultPlan arms one transient single-bit flip. The plan becomes
// eligible at cycle At and fires on the first eligible cycle where
// the class has a live target (an armed handler-state flip waits for
// a live handler); a plan whose class never finds a target simply
// never fires, which the campaign classifies as masked. Seed selects
// the target and bit deterministically — equal plans on equal
// machines flip the same bit of the same state at the same cycle.
//
// Plans live on the Machine (SetFaultPlan), never on Config, so the
// journal fingerprints of uninjected runs are untouched — the same
// contract as InjectBug and SetProbe.
type FaultPlan struct {
	Class FaultClass
	At    uint64 // earliest cycle the flip may fire
	Seed  uint64 // deterministic target/bit selection
}

// FaultRecord reports what an armed plan actually did.
type FaultRecord struct {
	// Applied is true once the flip fired. An armed plan that never
	// found a live target leaves it false.
	Applied bool
	// Cycle is when the flip fired.
	Cycle uint64
	// Target names the flipped state, e.g. "tid0 r7 bit13".
	Target string
}

// SetFaultPlan arms a transient-fault injection plan. Must be called
// after New and before Run; at most one flip fires per run.
func (m *Machine) SetFaultPlan(p FaultPlan) {
	m.fault = p
	m.faultArmed = true
}

// FaultRecord reports whether (and where) the armed plan fired.
func (m *Machine) FaultRecord() FaultRecord { return m.faultRec }

// faultRng is a splitmix64 sequence; the injector derives every
// selection from the plan seed through it, so target choice is a pure
// function of (plan, machine state at the firing cycle) — no global
// randomness, no wall clock.
type faultRng uint64

func (s *faultRng) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e9b5
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// faultSite is one flippable 64-bit field, collected in deterministic
// machine-scan order so the seeded pick is reproducible.
type faultSite struct {
	name string
	p    *uint64
}

// tryInjectFault attempts the armed flip. Called from the cycle loop
// once m.now has reached the plan's cycle; retries every cycle until
// a live target exists. The selection RNG restarts from the plan seed
// on every attempt, so the choice depends only on the machine state
// at the cycle the flip actually fires.
func (m *Machine) tryInjectFault() {
	r := faultRng(m.fault.Seed)
	var target string
	var ok bool
	switch m.fault.Class {
	case FaultNone:
		m.faultArmed = false
		return
	case FaultArchReg:
		target, ok = m.flipArchReg(&r)
	case FaultHandlerCtx:
		target, ok = m.flipHandlerState(&r)
	case FaultTLB:
		target, ok = m.dtlb.CorruptEntry(r.next(), r.next(), r.next())
	case FaultWindow:
		target, ok = m.flipWindowPayload(&r)
	default:
		m.faultArmed = false
		return
	}
	if !ok {
		return // no live target this cycle; stay armed
	}
	m.faultArmed = false
	m.faultRec = FaultRecord{Applied: true, Cycle: m.now, Target: target}
	m.Stats.Counter("fault.injected").Inc()
}

// flipBit XORs a seeded bit of the chosen site.
func flipBit(s faultSite, r *faultRng) string {
	bit := r.next() % 64
	*s.p ^= 1 << bit
	return fmt.Sprintf("%s bit%d", s.name, bit)
}

// flipArchReg corrupts one architectural register of a live
// application context. The zero register is hardwired and excluded;
// 31 integer + 32 FP registers are equally likely.
func (m *Machine) flipArchReg(r *faultRng) (string, bool) {
	var cands []*thread
	for i := range m.threads {
		if m.threads[i].state == ctxRunning {
			cands = append(cands, &m.threads[i])
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	t := cands[r.next()%uint64(len(cands))]
	sel := r.next() % 63
	if sel < 31 {
		reg := int(sel)
		if reg >= int(isa.RegZero) {
			reg++
		}
		return flipBit(faultSite{fmt.Sprintf("tid%d r%d", t.id, reg), &t.rf.Int[reg]}, r), true
	}
	reg := int(sel - 31)
	return flipBit(faultSite{fmt.Sprintf("tid%d f%d", t.id, reg), &t.rf.FP[reg]}, r), true
}

// handlerSites collects the flippable state of one live handler
// context: the snapshot fields the mechanism replays after the master
// uop is gone, plus the registers the handler code itself reads —
// the handler thread's integer and privileged registers under the
// multithreaded mechanism, the master thread's PAL shadow registers
// under the traditional one.
func (m *Machine) handlerSites(i int, ctx *handlerCtx, sites []faultSite) []faultSite {
	tag := fmt.Sprintf("h%d", i)
	sites = append(sites,
		faultSite{tag + ".excPC", &ctx.excPC},
		faultSite{tag + ".masterPC", &ctx.masterPC},
		faultSite{tag + ".faultVPN", &ctx.faultVPN},
		faultSite{tag + ".faultVA", &ctx.faultVA},
	)
	privs := []isa.PrivReg{isa.PrFaultVA, isa.PrExcPC, isa.PrPTBase, isa.PrSrcVal0}
	switch ctx.mech {
	case MechMultithreaded:
		ht := &m.threads[ctx.tid]
		if ht.state != ctxException {
			return sites
		}
		for reg := 0; reg < 32; reg++ {
			if reg == int(isa.RegZero) {
				continue
			}
			sites = append(sites, faultSite{fmt.Sprintf("%s.tid%d.r%d", tag, ht.id, reg), &ht.rf.Int[reg]})
		}
		for _, pr := range privs {
			sites = append(sites, faultSite{fmt.Sprintf("%s.tid%d.priv%d", tag, ht.id, pr), &ht.priv[pr]})
		}
	case MechTraditional:
		mt := &m.threads[ctx.masterTid]
		if !mt.inPAL {
			return sites
		}
		for reg := 0; reg < 32; reg++ {
			if reg == int(isa.RegZero) {
				continue
			}
			sites = append(sites, faultSite{fmt.Sprintf("%s.tid%d.s%d", tag, mt.id, reg), &mt.shadowRF.Int[reg]})
		}
		for _, pr := range privs {
			sites = append(sites, faultSite{fmt.Sprintf("%s.tid%d.priv%d", tag, mt.id, pr), &mt.priv[pr]})
		}
	}
	return sites
}

// flipHandlerState corrupts live exception-handler state. With no
// handler in flight there is no target; the plan stays armed.
func (m *Machine) flipHandlerState(r *faultRng) (string, bool) {
	var sites []faultSite
	for i, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.dead || ctx.rfeRetired {
			continue
		}
		sites = m.handlerSites(i, ctx, sites)
	}
	if len(sites) == 0 {
		return "", false
	}
	return flipBit(sites[r.next()%uint64(len(sites))], r), true
}

// flipWindowPayload corrupts the payload of one in-window dynamic
// instruction: the functional result every consumer reads, the
// effective address a memory op retires against, the value a store
// commits, or the next PC a control transfer resolves to. Handler
// (PAL) instructions are eligible exactly like application ones —
// that is the "extra state live across contexts" the campaign
// measures.
func (m *Machine) flipWindowPayload(r *faultRng) (string, bool) {
	var sites []faultSite
	for _, ui := range m.window {
		u := m.at(ui)
		if u.stage != stageWindow && u.stage != stageIssued && u.stage != stageDone {
			continue
		}
		tag := fmt.Sprintf("w.seq%d.%v", u.seq, u.inst.Op)
		sites = append(sites, faultSite{tag + ".result", &u.result})
		if u.isMem() {
			sites = append(sites, faultSite{tag + ".ea", &u.ea})
		}
		if u.isStore() {
			sites = append(sites, faultSite{tag + ".storeVal", &u.storeVal})
		}
		if u.isControl() {
			sites = append(sites, faultSite{tag + ".nextPC", &u.nextPC})
		}
	}
	if len(sites) == 0 {
		return "", false
	}
	return flipBit(sites[r.next()%uint64(len(sites))], r), true
}
