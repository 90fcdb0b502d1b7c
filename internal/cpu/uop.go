package cpu

import (
	"mtexc/internal/bpred"
	"mtexc/internal/isa"
	"mtexc/internal/obs"
)

// uopStage tracks a dynamic instruction's position in the pipeline.
type uopStage uint8

const (
	stageFetched uopStage = iota // in a fetch buffer / fetch pipe
	stageWindow                  // dispatched into the instruction window
	stageIssued                  // executing
	stageDone                    // completed, awaiting retirement
	stageRetired
	stageSquashed
)

// regFileKind distinguishes destination/journal register files.
type regFileKind uint8

const (
	regNone regFileKind = iota
	regInt
	regFP
)

// uopIdx is an index handle into the machine's uop arena. Handle 0 is
// the reserved sentinel slot (never allocated), so zero-valued
// references are naturally empty. Handles are stable for the life of
// a machine — arena storage is recycled in place, never compacted —
// and remain meaningful across Machine.Clone, which copies the arena
// wholesale.
type uopIdx int32

// noUop is the empty uop handle (the arena's sentinel slot).
const noUop uopIdx = 0

// depRef is a generation-checked reference to a producer uop. uops
// are pool-recycled at retire/squash (see Machine.releaseUop); a
// recycled producer bumps its generation, so a stale reference —
// whose producer has left the machine — resolves to nil instead of
// aliasing the unrelated instruction now occupying the storage.
// Consumers treat a stale reference as a satisfied dependency: a
// reference only goes stale when its producer retired (a squashed
// producer always takes its same-thread, younger consumers with it),
// and a retired producer has completed by definition.
//
// The reference is a pure index pair — no pointers — so the arena it
// resolves against is chosen by the resolving machine. That is what
// makes machine state deep-copyable: a cloned arena reinterprets the
// same references without translation.
type depRef struct {
	idx uopIdx
	gen uint32
}

// ref captures a generation-checked reference to u. Referencing an
// already-released uop (a traditional trap links its master after the
// squash recycled it) yields the empty reference rather than one that
// would alias the storage's next occupant.
func ref(u *uop) depRef {
	if u == nil || u.pooled {
		return depRef{}
	}
	return depRef{idx: u.idx, gen: u.gen}
}

// uopAt resolves a generation-checked reference against this
// machine's arena, returning nil when empty or stale. The sentinel
// slot 0 carries generation 1, so the zero depRef never resolves.
//
//mtexc:hotpath
func (m *Machine) uopAt(r depRef) *uop {
	u := &m.uops[r.idx]
	if u.gen == r.gen {
		return u
	}
	return nil
}

// at returns the arena slot for a plain handle. The caller guarantees
// the handle is live (it came off a machine-owned list that strips
// entries before their uops are released).
//
//mtexc:hotpath
func (m *Machine) at(i uopIdx) *uop { return &m.uops[i] }

// uop is one dynamic instruction. Functional results are computed at
// fetch time along the predicted path; the timing fields track its
// progress through the machine.
//
// Fields are grouped by alignment, with the ones the scheduler reads
// every cycle (stage, parking, readiness, age, the wake list) in the
// first 64 bytes. Clone copies the whole arena once per fault trial,
// so TestUopSize holds the struct to its size before event-driven
// scheduling.
type uop struct {
	// idx is this uop's own arena handle, fixed when its slot is first
	// carved out of the arena; gen is the pool-recycling generation,
	// bumped every time the uop is released.
	idx uopIdx
	gen uint32

	stage    uopStage
	dtlbWait bool // parked waiting for a TLB fill (or an exception's service)
	// inCand marks a uop on the machine's candidate list (see
	// Machine.cands); pending counts its producers that have not
	// issued yet. Both are maintained by the dataflow wakeup.
	inCand  bool
	pending uint8
	pooled  bool // in the free list
	pal     bool // fetched in PAL (handler) mode
	// excFetch marks instructions fetched by an exception-handler
	// context (multithreaded mechanism); they are subject to the
	// Table 3 limit-study exemptions.
	excFetch bool
	// instant marks a handler instruction materialized under the
	// LimitInstantFetch study: it dispatches with zero decode and
	// schedule latency and consumes no decode bandwidth, but still
	// obeys window-space rules.
	instant bool

	seq uint64 // global fetch order
	// schedSeq is the age used for oldest-first scheduling. Handler
	// instructions inherit their master's age: they retire before the
	// excepting instruction, so they compete for issue slots as if
	// fetched in its place.
	schedSeq uint64
	// readyAt is the first cycle u may issue once pending reaches
	// zero: the register-read delay after dispatch and every issued
	// producer's completion, folded in as each becomes known.
	readyAt uint64
	doneAt  uint64 // completion time, valid once issued
	// wakeHead is the newest consumer still waiting on this uop;
	// wakeNext[s] continues the list of the producer in srcs[s].
	// Lists are linked at fetch and walked when the producer issues.
	wakeHead wakeLink
	wakeNext [3]wakeLink

	tid  int // hardware context
	pc   uint64
	inst isa.Instruction

	// Functional (oracle) results, valid along the fetched path.
	nextPC   uint64 // architectural next PC
	predPC   uint64 // predicted next PC at fetch time
	result   uint64 // destination value (int or FP bits)
	oldVal   uint64 // journal: previous value of the slot, for squash undo
	srcVal   uint64 // first source operand value (emulated instructions)
	ea       uint64 // effective address for memory ops
	storeVal uint64 // value stored (stores only)
	memBytes uint64 // access width, 0 for non-memory

	// Dataflow: producers this uop waits on (empty/stale entries are
	// satisfied dependencies — see depRef).
	srcs [3]depRef

	// Timing.
	fetchAt  uint64 // cycle the uop was fetched
	availAt  uint64 // cycle the uop leaves the fetch pipe (decode-ready)
	windowAt uint64 // cycle it entered the window
	issueAt  uint64 // cycle of the (last) issue
	// dispatchSeq orders window entries by dispatch, the order the
	// window-payload fault class enumerates its sites in.
	dispatchSeq uint64

	// Branch prediction repair state.
	histBefore uint64 // GHR before this branch's outcome was shifted in
	pathBefore uint64 // path history before this control transfer
	rasCp      bpred.Checkpoint

	// Exception state.
	faultVPN uint64 // VPN it missed on (while dtlbWait)
	// handlerBy is the handler/walk this uop's miss is linked to
	// (as master or as a buffered secondary miss).
	handlerBy hRef
	missAt    uint64 // cycle the miss was detected
	wokeAt    uint64 // cycle the fill released it
	// palCtx links PAL-mode instructions to their handler instance.
	palCtx hRef
	// fwdStore is the buffered store this load forwards from, if any
	// (stale once the store retires).
	fwdStore depRef

	// span is the miss-latency span this uop masters, stamped with
	// its retirement (the splice point).
	span *obs.MissSpan
	// issueSlots counts the issue slots this uop consumed (a parked
	// TLB-miss instruction issues more than once); squash moves them
	// to the waste category of the slot account.
	issueSlots uint32

	mispred  bool        // predPC != nextPC
	taken    bool        // actual direction for conditional branches
	destKind regFileKind // which file result targets
	destReg  uint8
	// slotKind/slotReg name the register slot written (the journal
	// target) as a location, not a pointer, so the journal survives a
	// deep copy of the machine; Machine.slotPtr resolves it against
	// the owning thread's register state.
	slotKind   slotKind
	slotReg    uint8
	issuedOnce bool // has occupied an FU at least once (stats)
	hadMiss    bool // experienced a DTLB miss (retire-time accounting)
	missMain   bool // was the master of a fill (not a merged secondary)
	// palAfter is the thread's fetch mode after this instruction;
	// squash recovery restores it.
	palAfter bool
}

// wakeLink names one edge on a producer's wake list: the consumer's
// arena handle and which of its srcs slots the edge fills. The zero
// link (slot 0 of the sentinel handle) ends a list.
type wakeLink int32

func linkOf(i uopIdx, slot int) wakeLink { return wakeLink(i)<<2 | wakeLink(slot) }

func (l wakeLink) idx() uopIdx { return uopIdx(l >> 2) }

func (l wakeLink) slot() int { return int(l & 3) }

// numClasses sizes per-class lookup tables.
const numClasses = int(isa.ClassHalt) + 1

// classNames label the retirement-mix statistics.
var classNames = [numClasses]string{
	isa.ClassNop: "nop", isa.ClassIntALU: "intalu", isa.ClassIntMul: "intmul",
	isa.ClassIntDiv: "intdiv", isa.ClassFPAdd: "fpadd", isa.ClassFPMul: "fpmul",
	isa.ClassFPDiv: "fpdiv", isa.ClassLoad: "load", isa.ClassStore: "store",
	isa.ClassBranch: "branch", isa.ClassJump: "jump", isa.ClassPriv: "priv",
	isa.ClassRfe: "rfe", isa.ClassHardExc: "hardexc", isa.ClassHalt: "halt",
}

// unissued reports whether u has not yet started executing: its
// consumers still wait on it through the wake list.
func (u *uop) unissued() bool { return u.stage == stageFetched || u.stage == stageWindow }

func (u *uop) isBranch() bool { return isa.ClassOf(u.inst.Op) == isa.ClassBranch }

func (u *uop) isControl() bool { return u.inst.Op.IsControl() }

func (u *uop) isLoad() bool { return isa.ClassOf(u.inst.Op) == isa.ClassLoad }

func (u *uop) isStore() bool { return isa.ClassOf(u.inst.Op) == isa.ClassStore }

func (u *uop) isMem() bool { return u.isLoad() || u.isStore() }

// slotKind locates a journalled register write inside its thread's
// architectural state: the speculative register file, the PAL shadow
// file (traditional handlers), or a privileged register.
type slotKind uint8

const (
	slotNone slotKind = iota
	slotInt
	slotFP
	slotShadowInt
	slotShadowFP
	slotPriv
)

// slotPtr resolves a uop's journalled write target against its
// thread's register state. nil when the uop wrote no slot.
//
//mtexc:hotpath
func (m *Machine) slotPtr(u *uop) *uint64 {
	t := &m.threads[u.tid]
	switch u.slotKind {
	case slotInt:
		return &t.rf.Int[u.slotReg]
	case slotFP:
		return &t.rf.FP[u.slotReg]
	case slotShadowInt:
		return &t.shadowRF.Int[u.slotReg]
	case slotShadowFP:
		return &t.shadowRF.FP[u.slotReg]
	case slotPriv:
		return &t.priv[u.slotReg]
	}
	return nil
}

// latencyClass maps an opcode to its functional-unit class and
// execution latency under the configuration.
func (c *Config) latencyOf(op isa.Op) uint64 {
	switch isa.ClassOf(op) {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassPriv, isa.ClassRfe,
		isa.ClassHardExc, isa.ClassHalt, isa.ClassBranch, isa.ClassJump:
		return c.LatIntALU
	case isa.ClassIntMul:
		return c.LatIntMul
	case isa.ClassIntDiv:
		return c.LatIntDiv
	case isa.ClassFPAdd:
		return c.LatFPAdd
	case isa.ClassFPMul:
		return c.LatFPMul
	case isa.ClassFPDiv:
		if op == isa.OpFsqrt {
			return c.LatFPSqrt
		}
		return c.LatFPDiv
	case isa.ClassLoad:
		return c.Hier.LoadLat
	case isa.ClassStore:
		return c.Hier.StoreLat
	}
	return 1
}
