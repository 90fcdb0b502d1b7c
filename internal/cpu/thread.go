package cpu

import (
	"mtexc/internal/bpred"
	"mtexc/internal/isa"
	"mtexc/internal/obs"
	"mtexc/internal/vm"
)

// threadState enumerates hardware-context states, extending the
// paper's Figure 4 per-thread control state (Normal / Idle /
// Exception).
type threadState uint8

const (
	ctxIdle threadState = iota
	ctxRunning
	ctxException // running an exception handler for a master thread
	ctxHalted
)

// specStore is one entry of a thread's speculative store buffer: a
// store that has functionally executed (at fetch) but not retired.
// Younger loads forward from it; squash removes it; retire drains it
// to memory. The owning store is named by arena handle plus a
// denormalized copy of its sequence number, so the buffer's age
// checks need no arena access (entries are stripped at squash/retire,
// before the uop is ever released).
type specStore struct {
	idx   uopIdx
	seq   uint64
	addr  uint64
	size  uint64
	value uint64
}

// thread is one hardware context.
type thread struct {
	id    int
	state threadState

	// Program binding (application threads).
	img *vm.Image
	as  *vm.AddressSpace
	// xlate caches resident pages of as (Machine.translate).
	xlate [xlateSize]xlateEntry

	// Fetch-time (speculative) architectural state. It follows the
	// predicted path and is repaired from the journal on squash.
	rf       isa.RegFile
	shadowRF isa.RegFile // PAL shadow registers (traditional handlers)
	pc       uint64
	inPAL    bool
	priv     [isa.NumPrivRegs]uint64

	// Branch predictor speculative state.
	ghr  uint64
	path uint64

	// Fetch plumbing.
	fetchBuf          []uopIdx // fetched, awaiting decode (availAt gates entry)
	fetchStalled      bool     // stalled on an unpredictable redirect (RFE)
	haltedFetch       bool     // ran off code or HALT fetched
	fetchBlockedUntil uint64   // redirect / OS-service fetch embargo

	// Fetch-order last-writer tables for dataflow construction. The
	// shadow table covers PAL-shadow integer registers (traditional
	// in-thread handlers); PAL code uses no FP registers. Entries are
	// generation-checked: a stale entry means the writer retired.
	lwInt    [32]depRef
	lwFP     [32]depRef
	lwShadow [32]depRef

	// trapCtx is the live traditional-trap handler instance, if any.
	trapCtx hRef
	// lastTLBWR is the most recent TLB write fetched in PAL mode; RFE
	// serializes against it.
	lastTLBWR depRef

	// In-flight instructions in fetch order (the per-thread FIFO
	// view of the shared window plus fetch/decode pipes). Retirement
	// pops the head and squash cuts the tail, releasing the uops, so
	// every entry is live.
	inflight []uopIdx

	icount int // fetched-not-retired count for the ICOUNT chooser

	// Speculative store buffer, fetch order.
	ssb []specStore

	// Exception-context linkage (Figure 4 state), valid in
	// ctxException: which thread and instruction this handler
	// serves.
	exc hRef

	// Quick-start: this idle context's fetch buffer holds a
	// pre-staged handler (Section 5.4). primedKind records which
	// handler the history-based exception-type predictor staged.
	primed     bool
	primedKind excKind

	// Statistics.
	retired    uint64 // application instructions retired
	retiredPAL uint64
}

// handlerCtx tracks one in-flight exception handler: the spawned
// thread (multithreaded), the hardware walk (hardware), or the
// in-thread trap (traditional). It is the paper's Figure 4 control
// state plus the secondary-miss buffering of Section 4.5.
// excKind distinguishes the exception classes the machine handles in
// software.
type excKind uint8

const (
	kindTLB       excKind = iota // data-TLB miss
	kindEmu                      // instruction emulation (Section 6)
	kindUnaligned                // unaligned access (Section 6)
)

// hIdx is an index handle into the machine's handler-context arena;
// handle 0 is the reserved sentinel, so zero values are empty.
type hIdx int32

// noHandler is the empty handler handle.
const noHandler hIdx = 0

// hRef is a generation-checked handler-context reference, the
// handler-arena analogue of depRef: contexts are pool-recycled
// (freeHandlerContext bumps the generation), so a stale reference
// resolves to nil instead of aliasing an unrelated later exception.
type hRef struct {
	idx hIdx
	gen uint32
}

// href captures a generation-checked reference to ctx.
func href(ctx *handlerCtx) hRef {
	if ctx == nil || ctx.pooled {
		return hRef{}
	}
	return hRef{idx: ctx.idx, gen: ctx.gen}
}

// hctx resolves a handler reference against this machine's arena,
// returning nil when empty or stale.
//
//mtexc:hotpath
func (m *Machine) hctx(r hRef) *handlerCtx {
	ctx := &m.hArena[r.idx]
	if ctx.gen == r.gen {
		return ctx
	}
	return nil
}

type handlerCtx struct {
	// idx is this context's own arena handle; gen is the recycling
	// generation (bumped by freeHandlerContext); pooled marks a
	// context currently in the free list.
	idx    hIdx
	gen    uint32
	pooled bool

	mech      Mechanism
	kind      excKind
	tid       int // handler thread id (multithreaded) or master tid
	masterTid int
	// master is the (oldest) excepting instruction. The reference is
	// generation-checked: a traditional trap squashes its master, whose
	// storage is then pool-recycled, so every dereference must go
	// through live(). The master* snapshots below preserve the fields
	// the handler still needs after the uop itself is gone.
	master     depRef
	masterSeq  uint64 // master's fetch sequence number
	masterPC   uint64 // master's PC (trap-squash refetch target)
	masterDest uint8  // master's destination register (WRTDEST)
	masterHist uint64 // master's GHR before fetch (squash repair)
	masterPath uint64 // master's path history before fetch
	masterRAS  bpred.Checkpoint
	faultVPN   uint64
	faultVA    uint64
	specTag    uint64 // TLB speculative-fill tag
	excPC      uint64 // PC of the excepting instruction (restart point)
	firstSeq   uint64 // first handler-instruction sequence (traditional)
	// waiters are secondary misses to the same page, parked until the
	// fill completes (Section 4.5). Entries are arena handles, always
	// live: a squashed waiter is unlinked before its uop is released.
	waiters []uopIdx
	// filled is set once TLBWR (or the walk) has filled the TLB.
	filled bool
	// fetchBudget: handler instructions left to fetch (perfect
	// handler-length prediction per Table 1).
	fetchBudget int
	// reserveLeft: window slots still held in reserve for this
	// handler (Section 4.4).
	reserveLeft int
	// rfeRetired marks the handler fully retired (splice complete).
	rfeRetired bool
	// Hardware-walk state. Two-level tables walk in two stages.
	walkStarted bool
	walkStage   int
	walkDone    uint64
	dead        bool
	detectAt    uint64 // cycle the (master) miss was detected, for stats
	// span is this exception's latency-breakdown record.
	span *obs.MissSpan
}

// setMaster links u as the context's master and snapshots the fields
// read after the uop may have been squashed and recycled.
func (ctx *handlerCtx) setMaster(u *uop) {
	ctx.master = ref(u)
	ctx.masterSeq = u.seq
	ctx.masterPC = u.pc
	ctx.masterDest = u.inst.Rd
	ctx.masterHist = u.histBefore
	ctx.masterPath = u.pathBefore
	ctx.masterRAS = u.rasCp
}

// spanKindNames label exception kinds in miss spans.
var spanKindNames = [...]string{kindTLB: "tlb", kindEmu: "emu", kindUnaligned: "unaligned"}

func (k excKind) spanName() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// runnable reports whether the context currently fetches and executes
// instructions.
func (t *thread) runnable() bool {
	return t.state == ctxRunning || t.state == ctxException
}

// writerTables selects the last-writer tables matching the register
// file fetched instructions currently target (see curRF).
func (t *thread) writerTables() (*[32]depRef, *[32]depRef) {
	if t.inPAL && t.state != ctxException {
		return &t.lwShadow, &t.lwFP
	}
	return &t.lwInt, &t.lwFP
}

// xlateSize is the entry count of each thread's direct-mapped
// translation cache.
const xlateSize = 32

// xlateEntry caches one resident page: vpn+1 (zero marks an empty
// entry) and its frame.
type xlateEntry struct{ vpn1, pfn uint64 }

// translate is t.as.Translate behind the thread's translation cache.
// Only resident pages are cached, and nothing unmaps a page while a
// machine runs (the OS fault service only maps), so an entry never
// goes stale; a clone copies the cache with the frames its cloned
// address space keeps.
func (m *Machine) translate(t *thread, va uint64) (uint64, bool) {
	vpn := va >> vm.PageShift
	e := &t.xlate[vpn%xlateSize]
	if e.vpn1 != vpn+1 {
		pa, ok := t.as.Translate(va)
		if !ok {
			return 0, false
		}
		e.vpn1, e.pfn = vpn+1, pa>>vm.PageShift
		return pa, true
	}
	return e.pfn<<vm.PageShift | va&(vm.PageSize-1), true
}

// lookupSSB searches the speculative store buffer for the youngest
// store older than seq that overlaps [addr, addr+size). It reports
// a full forwarding value when found. Partial overlaps are composed
// byte-wise by the caller via overlaySSB.
func (t *thread) lookupSSB(seq, addr, size uint64) (*specStore, bool) {
	for i := len(t.ssb) - 1; i >= 0; i-- {
		e := &t.ssb[i]
		if e.seq >= seq {
			continue
		}
		if e.addr < addr+size && addr < e.addr+e.size {
			return e, true
		}
	}
	return nil, false
}

// overlaySSB composes the bytes of mem value v at [addr,addr+size)
// with all older buffered stores, oldest first, returning the value a
// load at seq must observe.
func (t *thread) overlaySSB(seq, addr, size, v uint64) uint64 {
	for i := range t.ssb {
		e := &t.ssb[i]
		if e.seq >= seq {
			break
		}
		if e.addr >= addr+size || addr >= e.addr+e.size {
			continue
		}
		// Overlay overlapping bytes.
		for b := uint64(0); b < size; b++ {
			ba := addr + b
			if ba >= e.addr && ba < e.addr+e.size {
				byteVal := e.value >> ((ba - e.addr) * 8) & 0xff
				v = v&^(0xff<<(b*8)) | byteVal<<(b*8)
			}
		}
	}
	return v
}

// removeSSBFrom drops all buffered stores with seq >= from (squash).
func (t *thread) removeSSBFrom(from uint64) {
	i := len(t.ssb)
	for i > 0 && t.ssb[i-1].seq >= from {
		i--
	}
	t.ssb = t.ssb[:i]
}

// popSSBHead removes the head entry, which must belong to u (called
// at store retirement).
func (t *thread) popSSBHead(u *uop) bool {
	if len(t.ssb) == 0 || t.ssb[0].idx != u.idx {
		return false
	}
	t.ssb = t.ssb[1:]
	return true
}
