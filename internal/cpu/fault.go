package cpu

import (
	"fmt"
	"sort"

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

// faultSite is one flippable 64-bit field and the label that ends its
// name in a FaultRecord's Target.
type faultSite struct {
	label string
	p     *uint64
}

// faultTargets counts the candidates the first seeded draw of a class
// c flip picks among: the running application contexts (reg), the
// valid TLB entries (tlb), or the flippable fields of the live
// handlers (handler) and of the in-window instructions (window).
// FaultNone has none. It changes no state and formats no names, so it
// can be asked every cycle.
func (m *Machine) faultTargets(c FaultClass) uint64 {
	var n uint64
	switch c {
	case FaultArchReg:
		for i := range m.threads {
			if m.threads[i].state == ctxRunning {
				n++
			}
		}
	case FaultHandlerCtx:
		for _, hi := range m.handlers {
			if ctx := &m.hArena[hi]; !ctx.dead && !ctx.rfeRetired {
				n += m.handlerSiteCount(ctx)
			}
		}
	case FaultTLB:
		n = uint64(m.dtlb.ValidEntries())
	case FaultWindow:
		for ti := range m.threads {
			for _, ui := range m.threads[ti].inflight {
				if u := m.at(ui); u.stage != stageFetched {
					_, k := payloadSites(u)
					n += uint64(k)
				}
			}
		}
	}
	return n
}

// HasFaultTarget reports whether class c has a live target at the
// current cycle, that is, whether a plan of that class that is
// eligible now fires in the next StepCycle. It changes no state:
// forked fault trials step an unarmed machine until it holds and fork
// there (diffsim.Fork.RunFault), and tryInjectFault fires on the same
// count.
func (m *Machine) HasFaultTarget(c FaultClass) bool { return m.faultTargets(c) > 0 }

// tryInjectFault attempts the armed flip. Called from the cycle loop
// once m.now has reached the plan's cycle; retries every cycle until
// a live target exists. The selection RNG restarts from the plan seed
// on every attempt, so the choice depends only on the machine state
// at the cycle the flip actually fires. Only the flipped site's name
// is formatted.
func (m *Machine) tryInjectFault() {
	c := m.fault.Class
	if c == FaultNone || c > FaultWindow {
		m.faultArmed = false
		return
	}
	n := m.faultTargets(c)
	if n == 0 {
		return // no live target this cycle; stay armed
	}
	r := faultRng(m.fault.Seed)
	pick := r.next() % n
	var target string
	switch c {
	case FaultArchReg:
		target = m.flipArchReg(pick, &r)
	case FaultHandlerCtx:
		target = m.flipHandlerState(pick, &r)
	case FaultTLB:
		target, _ = m.dtlb.CorruptEntry(pick, r.next(), r.next())
	case FaultWindow:
		target = m.flipWindowPayload(pick, &r)
	}
	m.faultArmed = false
	m.faultRec = FaultRecord{Applied: true, Cycle: m.now, Target: target}
	m.Stats.Counter("fault.injected").Inc()
}

// flipBit XORs a seeded bit of *p and names the flip.
func flipBit(p *uint64, name string, r *faultRng) string {
	bit := r.next() % 64
	*p ^= 1 << bit
	return fmt.Sprintf("%s bit%d", name, bit)
}

// flipArchReg corrupts one architectural register of the pick-th
// running application context. The zero register is hardwired and
// excluded; 31 integer + 32 FP registers are equally likely.
func (m *Machine) flipArchReg(pick uint64, r *faultRng) string {
	var t *thread
	for i := range m.threads {
		if m.threads[i].state != ctxRunning {
			continue
		}
		if pick == 0 {
			t = &m.threads[i]
			break
		}
		pick--
	}
	sel := r.next() % 63
	if sel < 31 {
		reg := int(sel)
		if reg >= int(isa.RegZero) {
			reg++
		}
		return flipBit(&t.rf.Int[reg], fmt.Sprintf("tid%d r%d", t.id, reg), r)
	}
	reg := int(sel - 31)
	return flipBit(&t.rf.FP[reg], fmt.Sprintf("tid%d f%d", t.id, reg), r)
}

// handlerPrivs are the privileged registers a handler's code reads.
var handlerPrivs = [...]isa.PrivReg{isa.PrFaultVA, isa.PrExcPC, isa.PrPTBase, isa.PrSrcVal0}

// handlerRegs returns the register context the code of a live handler
// reads, with the letter that names its registers: the handler
// thread's integer registers ("r") under the multithreaded mechanism,
// the master thread's PAL shadow registers ("s") under the
// traditional one. It returns a nil thread while that context is not
// live, or under the hardware mechanism, which runs no handler code.
func (m *Machine) handlerRegs(ctx *handlerCtx) (*thread, *[isa.NumIntRegs]uint64, string) {
	switch ctx.mech {
	case MechMultithreaded:
		if t := &m.threads[ctx.tid]; t.state == ctxException {
			return t, &t.rf.Int, "r"
		}
	case MechTraditional:
		if t := &m.threads[ctx.masterTid]; t.inPAL {
			return t, &t.shadowRF.Int, "s"
		}
	}
	return nil, nil, ""
}

// handlerSiteCount counts the sites handlerSite numbers for a live
// handler context: the four snapshot fields the mechanism replays
// after the master uop is gone, plus, while its register context is
// live, 31 registers and the privileged registers.
func (m *Machine) handlerSiteCount(ctx *handlerCtx) uint64 {
	if t, _, _ := m.handlerRegs(ctx); t != nil {
		return 4 + 31 + uint64(len(handlerPrivs))
	}
	return 4
}

// handlerSite returns site k of the i-th live handler context ctx
// and its name: the snapshot fields, then the registers (the zero
// register excluded), then the privileged registers.
func (m *Machine) handlerSite(i int, ctx *handlerCtx, k uint64) (*uint64, string) {
	tag := fmt.Sprintf("h%d", i)
	switch k {
	case 0:
		return &ctx.excPC, tag + ".excPC"
	case 1:
		return &ctx.masterPC, tag + ".masterPC"
	case 2:
		return &ctx.faultVPN, tag + ".faultVPN"
	case 3:
		return &ctx.faultVA, tag + ".faultVA"
	}
	t, regs, letter := m.handlerRegs(ctx)
	if k -= 4; k < 31 {
		reg := int(k)
		if reg >= int(isa.RegZero) {
			reg++
		}
		return &regs[reg], fmt.Sprintf("%s.tid%d.%s%d", tag, t.id, letter, reg)
	}
	pr := handlerPrivs[k-31]
	return &t.priv[pr], fmt.Sprintf("%s.tid%d.priv%d", tag, t.id, pr)
}

// flipHandlerState corrupts the pick-th site of the live
// exception-handler state, in handler spawn order.
func (m *Machine) flipHandlerState(pick uint64, r *faultRng) string {
	for i, hi := range m.handlers {
		ctx := &m.hArena[hi]
		if ctx.dead || ctx.rfeRetired {
			continue
		}
		if n := m.handlerSiteCount(ctx); pick >= n {
			pick -= n
			continue
		}
		p, name := m.handlerSite(i, ctx, pick)
		return flipBit(p, name, r)
	}
	panic("cpu: handler fault site out of range")
}

// payloadSites lists the flippable payload fields of an in-window
// instruction, in site order: the functional result every consumer
// reads, then the effective address a memory op retires against, the
// value a store commits and the next PC a control transfer resolves
// to, when it has them.
func payloadSites(u *uop) (sites [4]faultSite, n int) {
	sites[n] = faultSite{".result", &u.result}
	n++
	if u.isMem() {
		sites[n] = faultSite{".ea", &u.ea}
		n++
	}
	if u.isStore() {
		sites[n] = faultSite{".storeVal", &u.storeVal}
		n++
	}
	if u.isControl() {
		sites[n] = faultSite{".nextPC", &u.nextPC}
		n++
	}
	return sites, n
}

// flipWindowPayload corrupts the pick-th payload site of the
// in-window dynamic instructions, taken in dispatch order, the
// window's age order. Handler (PAL) instructions are eligible exactly
// like application ones — that is the "extra state live across
// contexts" the campaign measures.
func (m *Machine) flipWindowPayload(pick uint64, r *faultRng) string {
	var window []*uop
	for ti := range m.threads {
		for _, ui := range m.threads[ti].inflight {
			if u := m.at(ui); u.stage != stageFetched {
				window = append(window, u)
			}
		}
	}
	sort.Slice(window, func(i, j int) bool { return window[i].dispatchSeq < window[j].dispatchSeq })
	for _, u := range window {
		sites, n := payloadSites(u)
		if pick >= uint64(n) {
			pick -= uint64(n)
			continue
		}
		s := sites[pick]
		return flipBit(s.p, fmt.Sprintf("w.seq%d.%v%s", u.seq, u.inst.Op, s.label), r)
	}
	panic("cpu: window fault site out of range")
}
