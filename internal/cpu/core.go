package cpu

import (
	"context"
	"fmt"

	"mtexc/internal/bpred"
	"mtexc/internal/cache"
	"mtexc/internal/isa"
	"mtexc/internal/mem"
	"mtexc/internal/obs"
	"mtexc/internal/stats"
	"mtexc/internal/trace"
	"mtexc/internal/vm"
)

// Machine is one configured simulated CPU plus memory system. Build
// one with New, attach programs with AddProgram, then Run.
type Machine struct {
	cfg  Config
	phys *mem.Physical
	hier *cache.Hierarchy
	dtlb *vm.TLB
	hand *vm.Handler
	pal  *vm.PALImage

	dir bpred.DirPredictor
	ind *bpred.Indirect

	emuHand   *vm.Handler
	unalpHand *vm.Handler

	// Machine state is struct-of-arrays: every dynamic instruction
	// lives in the uops arena, every in-flight exception in the
	// hArena, every hardware context in the threads slice, and all
	// cross-references between them are index handles (uopIdx/hIdx,
	// generation-checked as depRef/hRef). No pipeline structure holds
	// a pointer into another structure, which is what makes a machine
	// deep-copyable by CloneInto: copying the slices copies the state, and
	// the handles stay valid against the copied arenas.
	//
	// Arena growth contract: the uops and hArena slices grow only
	// inside newUop/newHandlerCtx, and no *uop or *handlerCtx local
	// obtained before such a call is used after it — every allocation
	// site re-derives pointers from handles. Slot 0 of each arena is a
	// reserved sentinel (generation 1, never allocated) so zero-valued
	// handles resolve to nil.
	uops    []uop
	uopFree []uopIdx // free slots in the uops arena (recycling pool)
	hArena  []handlerCtx
	hFree   []hIdx

	threads []thread
	ras     []*bpred.RAS // per-context return address stacks

	// Scheduling is event-driven; no stage walks the whole window.
	// The window's contents are the dispatched entries of the
	// threads' in-flight lists. issued lists the executing uops, which
	// complete scans for the ones finishing this cycle. cands lists
	// the window uops with no pending producer that are not parked on
	// an exception, which issue filters by readyAt and sorts by age.
	// Both hold generation-checked references: a uop is released the
	// moment it retires or is squashed, and its stale entries drop out
	// on the next scan.
	issued      []depRef
	cands       []depRef
	dispatched  uint64 // dispatch counter, stamped as uop.dispatchSeq
	windowCount int    // occupancy charged against WindowSize
	reserved    int    // slots reserved for in-flight handlers

	handlers []hIdx // live exception handlers / walks, spawn order
	// hZombies holds reaped-but-unrecycled handler contexts: a spent
	// context must stay resolvable until its master reference can no
	// longer fire (a squashed master of an already-spent handler still
	// triggers reclamation accounting — see unlinkSquashedMiss).
	hZombies []hIdx

	rrCursor     int // round-robin fetch cursor (FetchRoundRobin)
	retireBudget int // per-cycle retirement slots remaining

	now        uint64
	seqCounter uint64
	appRetired uint64

	// lastProgress is the cycle of the most recent retirement, the
	// watchdog's notion of forward progress (Config.NoProgressLimit).
	lastProgress uint64

	// ctx, when non-nil, is polled periodically by StepCycle; once it
	// is done the run aborts with a CancelledError (SetCancel).
	ctx context.Context

	// probe, when non-nil, receives periodic progress snapshots for
	// concurrent readers (SetProbe). Published on the cancel-poll
	// cadence, so an attached probe costs three atomic stores per
	// ~1k cycles and a detached one costs a nil check.
	probe *Probe

	Stats *stats.Set

	// Observ collects the run's observability data: the issue-slot
	// account, per-miss latency spans, and (when configured) the
	// interval sampler. Always non-nil.
	Observ *obs.Observations

	// RetireHook, when set, observes every retiring instruction in
	// global retirement order (tests verify the Figure 1 splice
	// invariant through it; tools use it for tracing).
	RetireHook func(RetiredInst)

	// TraceHook, when set, receives every instruction's full pipeline
	// lifecycle at retirement or squash (see the trace package).
	TraceHook func(trace.Record)

	// InjectBug, when not BugNone, seeds a deliberate defect into the
	// exception machinery (differential-fuzzing self-tests only). Set
	// after New, before Run; kept off Config so journal fingerprints
	// can never describe a deliberately broken machine.
	InjectBug InjectedBug

	// fault is the armed transient-fault plan (SetFaultPlan); like
	// InjectBug it lives off Config so uninjected fingerprints are
	// untouched. faultArmed gates the cycle-loop hook at one branch
	// per cycle; faultRec reports what fired (FaultRecord).
	fault      FaultPlan
	faultArmed bool
	faultRec   FaultRecord

	// scratch reused each cycle; contents are dead between uses, only
	// the capacity is retained (a clone keeps only its spare's). These
	// hold indices, not pointers: the issue and complete loops that
	// consume them can allocate uops (handler spawns, traps) and grow
	// the arena mid-iteration, which would invalidate *uop entries.
	readyScratch []uopIdx
	doneScratch  []uopIdx
	orderScratch []int // thread ids, ICOUNT dispatch order

	// hot caches lazily bound handles on the per-cycle statistics so
	// the cycle loop skips the registry's map lookups.
	hot hotStats
}

// hotStats holds lazily bound handles on the statistics the cycle
// loop touches per instruction or per cycle. Binding is lazy, so the
// Set's first-use registration order — and therefore the rendered
// stat output — is identical to direct Set.Counter calls.
type hotStats struct {
	fetchInsts      *stats.CachedCounter
	fetchCycles     *stats.CachedCounter
	dispatchInsts   *stats.CachedCounter
	issueInsts      *stats.CachedCounter
	retireInsts     *stats.CachedCounter
	squashInsts     *stats.CachedCounter
	fetchMispred    *stats.CachedCounter
	resolvedMispred *stats.CachedCounter
	memForwards     *stats.CachedCounter
	handlerActive   *stats.CachedCounter
	relinks         *stats.CachedCounter
	secondaryMisses *stats.CachedCounter
	walkerWalks     *stats.CachedCounter
	walkerFills     *stats.CachedCounter
	walkerFaults    *stats.CachedCounter
	fetchOffEnd     *stats.CachedCounter
	retireClass     [numClasses]*stats.CachedCounter
	windowOcc       *stats.CachedHistogram
	issueReady      *stats.CachedHistogram
}

func (m *Machine) bindHotStats() {
	s := m.Stats
	m.hot = hotStats{
		fetchInsts:      s.Cached("fetch.insts"),
		fetchCycles:     s.Cached("fetch.cycles"),
		dispatchInsts:   s.Cached("dispatch.insts"),
		issueInsts:      s.Cached("issue.insts"),
		retireInsts:     s.Cached("retire.insts"),
		squashInsts:     s.Cached("squash.insts"),
		fetchMispred:    s.Cached("bpred.fetchtime.mispredicts"),
		resolvedMispred: s.Cached("bpred.resolved.mispredicts"),
		memForwards:     s.Cached("mem.forwards"),
		handlerActive:   s.Cached("handler.activecycles"),
		relinks:         s.Cached("handler.relinks"),
		secondaryMisses: s.Cached("dtlb.misses.secondary"),
		walkerWalks:     s.Cached("walker.walks"),
		walkerFills:     s.Cached("walker.fills"),
		walkerFaults:    s.Cached("walker.pagefaults"),
		fetchOffEnd:     s.Cached("fetch.offend"),
		windowOcc:       s.CachedDenseHist("window.occupancy", m.cfg.WindowSize+1),
		issueReady:      s.CachedDenseHist("issue.ready", m.cfg.WindowSize+1),
	}
	for c := 0; c < numClasses; c++ {
		m.hot.retireClass[c] = s.Cached("retire.class." + classNames[c])
	}
}

// newUop takes a uop slot from the free list (or carves a new one off
// the arena), reset to the zero state with its handle and recycling
// generation preserved. Growing the arena may move its backing array,
// which is safe only because no caller holds a *uop across a newUop
// call (the arena growth contract on Machine).
func (m *Machine) newUop() *uop {
	if n := len(m.uopFree); n > 0 {
		i := m.uopFree[n-1]
		m.uopFree = m.uopFree[:n-1]
		u := &m.uops[i]
		*u = uop{idx: i, gen: u.gen}
		return u
	}
	i := uopIdx(len(m.uops))
	//lint:allow hotpathlint amortized arena growth: a fresh slot is carved only while the arena is still growing to steady state
	m.uops = append(m.uops, uop{idx: i})
	return &m.uops[i]
}

// releaseUop returns a retired or squashed uop to the free list and
// bumps its generation so every outstanding depRef to it goes stale.
//
// Release safety: retireUop releases a uop after popping it off its
// thread's in-flight list and the speculative store buffer; squashFrom
// releases the squashed tail once it is cut from the in-flight list
// and finishSquash has stripped it from the store and fetch buffers,
// and squashUop has already taken it off its producers' wake lists.
// Remaining references — the issued and candidate lists, consumer
// srcs, writer tables, fwdStore, lastTLBWR — are generation-checked
// depRefs that resolve to nil from here on.
func (m *Machine) releaseUop(u *uop) {
	if u.pooled {
		return
	}
	u.pooled = true
	u.gen++
	//lint:allow hotpathlint free-list append into capacity retained across cycles; amortized zero alloc
	m.uopFree = append(m.uopFree, u.idx)
}

// RetiredInst describes one retirement event for RetireHook.
type RetiredInst struct {
	Tid     int
	Seq     uint64
	PC      uint64
	Op      isa.Op
	PAL     bool
	HadMiss bool
	Cycle   uint64
}

// New builds a machine. Programs must be attached before Run.
func New(cfg Config) *Machine {
	return NewOnSubstrate(cfg, mem.NewPhysical(), cache.NewHierarchy(cfg.Hier))
}

// NewOnSubstrate builds a machine over caller-provided physical
// memory and cache hierarchy. This is the multi-core entry point: an
// N-core topology allocates one Physical and N hierarchies in front
// of a shared L2 domain, then builds each core here. The machine
// loads its own PAL image and handler code into phys (each core gets
// private copies at distinct frames) and otherwise behaves exactly
// like one built with New.
func NewOnSubstrate(cfg Config, phys *mem.Physical, hier *cache.Hierarchy) *Machine {
	hand := vm.GenerateDTBMissHandlerFor(cfg.PageTable, cfg.Handler)
	emu := vm.GenerateEmulationHandler()
	unalp := vm.GenerateUnalignedHandler()
	pal := vm.NewPALImage(phys)
	for _, h := range []*vm.Handler{hand, emu, unalp} {
		if err := pal.Add(phys, h); err != nil {
			panic(fmt.Sprintf("cpu: loading PAL image: %v", err))
		}
	}
	dtlb := vm.NewTLB(cfg.DTLBEntries)
	if cfg.DTLBWays > 0 {
		dtlb = vm.NewTLBSetAssoc(cfg.DTLBEntries, cfg.DTLBWays)
	}
	m := &Machine{
		cfg:       cfg,
		phys:      phys,
		hier:      hier,
		dtlb:      dtlb,
		hand:      hand,
		emuHand:   emu,
		unalpHand: unalp,
		pal:       pal,
		dir:       bpred.NewDirPredictor(cfg.BranchPredictor),
		ind:       bpred.NewIndirect(bpred.DefaultIndirectConfig()),
		Stats:     stats.NewSet(),
	}
	// Arena sentinels: slot 0 of each arena carries generation 1 and is
	// never allocated, so the zero-valued handle types resolve to nil.
	// The uop arena holds every live instruction: the window's plus
	// each context's fetch buffer. Sized to that bound it never regrows
	// (TestUopArenaNeverRegrows); only the no-window and instant-fetch
	// limit studies, whose handler instructions bypass those bounds,
	// may grow it.
	m.uops = make([]uop, 1, 1+cfg.WindowSize+cfg.Contexts*cfg.FetchBufferCap)
	m.uops[0].gen = 1
	m.hArena = make([]handlerCtx, 1, 1+cfg.Contexts+2)
	m.hArena[0].gen = 1
	// Each of a thread's two queues slides in a fixed array (pushUop)
	// twice the most instructions the machine holds, so its live
	// window slides to the front at most once per that many pushes,
	// and even the limit studies, whose handler instructions bypass the
	// window bound, stay far inside it.
	queueCap := 2 * (cfg.WindowSize + cfg.Contexts*cfg.FetchBufferCap)
	m.threads = make([]thread, cfg.Contexts)
	for i := 0; i < cfg.Contexts; i++ {
		m.threads[i] = thread{id: i, state: ctxIdle}
		m.threads[i].setQueues(make([]uopIdx, queueCap), make([]uopIdx, queueCap), nil, nil)
		m.ras = append(m.ras, bpred.NewRAS(64))
	}
	m.Observ = &obs.Observations{
		Slots:  obs.NewSlotAccount(cfg.Width),
		Misses: obs.NewMissRecorder(m.Stats),
	}
	if cfg.SampleInterval > 0 {
		m.attachSampler(cfg.SampleInterval)
	}
	m.bindHotStats()
	return m
}

// samplerSpec names one default interval time series and how it is
// sampled. The spec list (samplerSpecs) and the per-name reader
// (samplerSource) are split so CloneInto can rebind a copied sampler's
// closures onto the clone by name.
type samplerSpec struct {
	name string
	mode obs.SampleMode
}

// samplerSpecs lists the default series in registration order: IPC,
// detected miss rate, window occupancy, handler-context activity,
// squash rate and per-thread in-flight occupancy.
func (m *Machine) samplerSpecs() []samplerSpec {
	specs := []samplerSpec{
		{"ipc", obs.SampleRate},
		{"dtlb.missrate", obs.SampleRate},
		{"window.occupancy", obs.SampleLevel},
		{"handler.active", obs.SampleRate},
		{"squash.rate", obs.SampleRate},
	}
	for i := range m.threads {
		specs = append(specs, samplerSpec{fmt.Sprintf("thread%d.inflight", i), obs.SampleLevel})
	}
	return specs
}

// samplerSource returns the reader closure for a named series. Each
// closure captures the machine (plus an index for per-thread series,
// not a *thread: threads are value-slice elements), so the series
// keeps reading the machine that owns the sampler.
func (m *Machine) samplerSource(name string) func() float64 {
	switch name {
	case "ipc":
		return func() float64 { return float64(m.appRetired) }
	case "dtlb.missrate":
		return func() float64 { return float64(m.Stats.Get("dtlb.misses.detected")) }
	case "window.occupancy":
		return func() float64 { return float64(m.windowCount) }
	case "handler.active":
		return func() float64 { return float64(m.Stats.Get("handler.activecycles")) }
	case "squash.rate":
		return func() float64 { return float64(m.Stats.Get("squash.insts")) }
	}
	var ti int
	if n, _ := fmt.Sscanf(name, "thread%d.inflight", &ti); n == 1 {
		return func() float64 { return float64(m.threads[ti].icount) }
	}
	panic(fmt.Sprintf("cpu: unknown sampler series %q", name))
}

// attachSampler wires the default interval time series.
func (m *Machine) attachSampler(every uint64) {
	sp := obs.NewSampler(every)
	for _, spec := range m.samplerSpecs() {
		sp.Register(spec.name, spec.mode, m.samplerSource(spec.name))
	}
	m.Observ.Sampler = sp
}

// Phys exposes the physical memory for program construction.
func (m *Machine) Phys() *mem.Physical { return m.phys }

// SetCancel installs a context to abort the run by. StepCycle polls
// it every cancelPollMask+1 cycles and, once it is done, returns a
// CancelledError carrying ctx.Err(). Must be called before Run.
func (m *Machine) SetCancel(ctx context.Context) { m.ctx = ctx }

// AddProgram binds an image to the next idle hardware context and
// returns its context id. The image must already be Loaded.
func (m *Machine) AddProgram(img *vm.Image) (int, error) {
	if img.Space.Org() != m.cfg.PageTable {
		return 0, fmt.Errorf("cpu: image %q page-table organization %d does not match the machine's %d",
			img.Name, img.Space.Org(), m.cfg.PageTable)
	}
	for i := range m.threads {
		t := &m.threads[i]
		if t.state != ctxIdle {
			continue
		}
		t.state = ctxRunning
		t.img = img
		t.as = img.Space
		t.xlate = [xlateSize]xlateEntry{}
		t.pc = img.EntryVA
		t.priv[isa.PrPTBase] = img.Space.PTBase()
		t.priv[isa.PrPageSize] = vm.PageSize
		for _, r := range sortedRegKeys(img.InitInt) {
			t.rf.WriteInt(r, img.InitInt[r])
		}
		for _, r := range sortedRegKeys(img.InitFP) {
			t.rf.WriteFP(r, img.InitFP[r])
		}
		return t.id, nil
	}
	return 0, fmt.Errorf("cpu: no idle context for program %q", img.Name)
}

// sortedRegKeys returns an init-register map's keys in ascending
// register order by probing the dense uint8 index space — no map
// range at all, so the load path is deterministic by construction
// (and detlint-clean) rather than by the argument that per-register
// writes commute. Any future side effect in the register write path
// (probes, dirty tracking) inherits a stable seeding order for free.
func sortedRegKeys(m map[uint8]uint64) []uint8 {
	keys := make([]uint8, 0, len(m))
	for r := 0; r < 256 && len(keys) < len(m); r++ {
		if _, ok := m[uint8(r)]; ok {
			keys = append(keys, uint8(r))
		}
	}
	return keys
}

// AddProgramAt binds an image like AddProgram but starts the thread
// at an explicit PC with a complete architectural register file,
// replacing the image's entry point and sparse init values. This is
// the state-transfer half of two-tier sampled simulation: the
// functional tier fast-forwards, copies its mapped pages into this
// machine's physical memory, and hands the registers and resume PC
// here so a detailed window measures mid-execution state.
func (m *Machine) AddProgramAt(img *vm.Image, pc uint64, rf isa.RegFile) (int, error) {
	if pc < img.CodeVA || (pc-img.CodeVA)%4 != 0 || (pc-img.CodeVA)/4 >= uint64(len(img.Code)) {
		return 0, fmt.Errorf("cpu: resume pc %#x outside image %q code segment", pc, img.Name)
	}
	id, err := m.AddProgram(img)
	if err != nil {
		return 0, err
	}
	t := &m.threads[id]
	t.pc = pc
	t.rf = rf
	t.rf.Int[isa.RegZero] = 0
	return id, nil
}

// WarmPageTable touches every page-table-entry line of an address
// space into the cache hierarchy. The paper's simulations start from
// checkpoints partway into execution, where the operating system has
// already walked these entries; without this the short scaled runs
// would charge every fill a cold-memory PTE access the original
// evaluation never saw.
func (m *Machine) WarmPageTable(as *vm.AddressSpace) {
	lineMask := m.cfg.Hier.L1D.LineSize - 1
	last := ^uint64(0)
	lastRoot := ^uint64(0)
	as.ForEachMapped(func(vpn uint64) {
		line := as.PTEAddr(vpn) &^ lineMask
		if line != last {
			last = line
			m.hier.AccessData(0, line, false)
		}
		if as.Org() == vm.PTTwoLevel {
			root := as.RootEntryAddr(vpn) &^ lineMask
			if root != lastRoot {
				lastRoot = root
				m.hier.AccessData(0, root, false)
			}
		}
	})
}

// Result summarizes a completed run.
type Result struct {
	Cycles     uint64
	AppInsts   uint64 // application instructions retired
	DTLBMisses uint64 // committed fills (the paper's per-miss divisor)
	IPC        float64
	Stats      *stats.Set
	// Obs carries the run's observability data: slot accounting,
	// per-miss latency spans and interval series.
	Obs *obs.Observations
}

// cancelPollMask gates how often StepCycle publishes the probe and
// polls the cancel context: every (mask+1) cycles, cheap enough to
// leave on unconditionally.
const cancelPollMask = 0x3FF

// Run simulates until the machine is Done and returns the run
// summary. A Machine runs once; build a fresh one per simulation.
//
// Two abort paths return a partial Result alongside StepCycle's
// error: a *LivelockError from the retirement-progress watchdog, or a
// *CancelledError from the SetCancel context.
func (m *Machine) Run() (Result, error) { return m.RunUntil(m.cfg.MaxInsts) }

// RunUntil continues the simulation until the cumulative application
// retirement count reaches target or the machine is Done, and returns
// the summary so far. Unlike Run it is meant to be called repeatedly
// on one machine: sampled simulation runs a warm-up prefix, snapshots
// the counters, then continues through the measured window and
// differences the two Results. Counters are cumulative across calls.
func (m *Machine) RunUntil(target uint64) (Result, error) {
	for m.appRetired < target && !m.Done() {
		if err := m.StepCycle(); err != nil {
			return m.finish(), err
		}
	}
	return m.finish(), nil
}

// finish closes out the statistics and assembles the run summary;
// on abort paths the Result covers the cycles simulated so far.
func (m *Machine) finish() Result {
	m.Stats.Counter("cycles").Add(m.now - m.Stats.Get("cycles"))
	if sp := m.Observ.Sampler; sp != nil {
		sp.Flush(m.now)
	}
	if m.probe != nil {
		m.probe.publish(m.now, m.appRetired, m.lastProgress)
		m.probe.Done.Store(true)
	}
	res := Result{
		Cycles:     m.now,
		AppInsts:   m.appRetired,
		DTLBMisses: m.Stats.Get("dtlb.fills.committed"),
		Stats:      m.Stats,
		Obs:        m.Observ,
	}
	if m.now > 0 {
		res.IPC = float64(m.appRetired) / float64(m.now)
	}
	return res
}

// step advances one cycle. Stage order within a cycle: completions
// (branch resolution, fills) first, then retirement, issue, dispatch
// and fetch — so results produced in cycle N are visible to younger
// stages in cycle N, while newly fetched work cannot issue before
// traversing the pipes.
//
// step is the simulator's hot path (the ≤0.5 allocs/inst benchmark
// guard measures it); hotpathlint checks its whole static call tree.
//
//mtexc:hotpath
func (m *Machine) step() {
	m.complete()
	m.retire()
	m.issue()
	m.dispatch()
	m.fetch()
	m.hot.windowOcc.Observe(int64(m.windowCount))
	for i := range m.threads {
		if m.threads[i].state == ctxException {
			m.hot.handlerActive.Inc()
			break
		}
	}
	if m.cfg.CheckInvariants {
		m.checkInvariants()
		if err := m.Observ.Slots.CheckIdentity(); err != nil {
			m.invariantPanic("%v", err)
		}
	}
	m.now++
	if sp := m.Observ.Sampler; sp != nil {
		sp.Tick(m.now)
	}
}

// StepCycle advances the machine one cycle under run control, the one
// place a run's cycle advances: it fires an armed fault plan, steps
// the pipeline and runs the no-progress watchdog, and every
// cancelPollMask+1 cycles publishes the probe and polls the cancel
// context. Run and RunUntil loop it; external drivers (N-core
// topologies, forked fault trials) interleave it across machines while
// they are not Done, then call Finish on each.
//
// It fails a run two ways, after which the machine is only finished:
// a *LivelockError with a machine dump once no instruction has retired
// for Config.NoProgressLimit cycles, and a *CancelledError once the
// SetCancel context is done.
func (m *Machine) StepCycle() error {
	if m.faultArmed && m.now >= m.fault.At {
		m.tryInjectFault()
	}
	m.step()
	if limit := m.cfg.NoProgressLimit; limit > 0 && m.now-m.lastProgress > limit {
		return &LivelockError{
			Cycle:        m.now,
			LastProgress: m.lastProgress,
			Limit:        limit,
			AppRetired:   m.appRetired,
			Dump:         m.DumpState(),
		}
	}
	if m.now&cancelPollMask == 0 {
		if m.probe != nil {
			m.probe.publish(m.now, m.appRetired, m.lastProgress)
		}
		if m.ctx != nil {
			if err := m.ctx.Err(); err != nil {
				return &CancelledError{Cycle: m.now, Cause: err}
			}
		}
	}
	return nil
}

// Done reports whether the run is over: every context has halted,
// MaxInsts application instructions have retired or MaxCycles have
// elapsed.
func (m *Machine) Done() bool {
	return m.appRetired >= m.cfg.MaxInsts || m.now >= m.cfg.MaxCycles || m.allHalted()
}

// Now reports the current cycle.
func (m *Machine) Now() uint64 { return m.now }

// Finish closes out the statistics and assembles the run summary for
// a machine driven by StepCycle rather than Run.
func (m *Machine) Finish() Result { return m.finish() }

// allHalted reports whether no context can make further progress.
func (m *Machine) allHalted() bool {
	for i := range m.threads {
		if s := m.threads[i].state; s == ctxRunning || s == ctxException {
			return false
		}
	}
	return true
}

// emitTrace reports a finished (retired or squashed) instruction's
// lifecycle to the TraceHook. Tracing is opt-in observability, off on
// measured configurations.
//
//mtexc:coldpath
func (m *Machine) emitTrace(u *uop, squashed bool) {
	m.TraceHook(trace.Record{
		Seq:      u.seq,
		Tid:      u.tid,
		PC:       u.pc,
		Op:       u.inst.Op.String(),
		PAL:      u.pal,
		HadMiss:  u.hadMiss,
		Squashed: squashed,
		FetchAt:  u.fetchAt,
		AvailAt:  u.availAt,
		WindowAt: u.windowAt,
		IssueAt:  u.issueAt,
		DoneAt:   u.doneAt,
		EndAt:    m.now,
	})
}

// nextSeq hands out global fetch-order sequence numbers, which also
// serve as TLB speculative-fill tags (never zero).
func (m *Machine) nextSeq() uint64 {
	m.seqCounter++
	return m.seqCounter
}

// windowFreeFor reports whether thread t may dispatch one more
// instruction into the window, honouring handler reservations.
func (m *Machine) windowFreeFor(t *thread) bool {
	if t.state == ctxException {
		if m.cfg.Limit == LimitNoWindow {
			return true
		}
		return m.windowCount < m.cfg.WindowSize
	}
	return m.windowCount+m.reserved < m.cfg.WindowSize
}

// addToWindow dispatches u at cycle when.
func (m *Machine) addToWindow(u *uop, when uint64) {
	u.stage = stageWindow
	u.windowAt = when
	m.dispatched++
	u.dispatchSeq = m.dispatched
	if r := when + uint64(m.cfg.RegReadStages); u.readyAt < r {
		u.readyAt = r
	}
	if u.pending == 0 {
		m.addCand(u)
	}
	if !(u.excFetch && m.cfg.Limit == LimitNoWindow) {
		m.windowCount++
	}
	t := &m.threads[u.tid]
	if u.excFetch {
		if exc := m.hctx(t.exc); exc != nil && exc.reserveLeft > 0 {
			exc.reserveLeft--
			m.reserved--
		}
	}
}

// releaseWindowSlot gives back u's occupancy charge.
func (m *Machine) releaseWindowSlot(u *uop) {
	if u.excFetch && m.cfg.Limit == LimitNoWindow {
		return
	}
	m.windowCount--
}

// linkSrc records that u reads producer p through srcs[slot]. A
// producer that has not issued puts u on its wake list and counts
// against u.pending; an issued one only bounds u.readyAt.
func (m *Machine) linkSrc(u, p *uop, slot int) {
	if p.unissued() {
		u.pending++
		u.wakeNext[slot] = p.wakeHead
		p.wakeHead = linkOf(u.idx, slot)
		return
	}
	if u.readyAt < p.doneAt {
		u.readyAt = p.doneAt
	}
}

// markIssued starts u's execution, finishing at doneAt, and wakes the
// consumers on its wake list: each learns when u's result arrives,
// and one left with no pending producer becomes a candidate. Every
// path that moves a uop into execution goes through here.
func (m *Machine) markIssued(u *uop, doneAt uint64) {
	u.stage = stageIssued
	u.doneAt = doneAt
	//lint:allow hotpathlint append into capacity retained across cycles; bounded by the window's high-water mark
	m.issued = append(m.issued, ref(u))
	for l := u.wakeHead; l != 0; {
		c := m.at(l.idx())
		s := l.slot()
		l = c.wakeNext[s]
		c.wakeNext[s] = 0
		c.pending--
		if c.readyAt < doneAt {
			c.readyAt = doneAt
		}
		if c.pending == 0 && c.stage == stageWindow {
			m.addCand(c)
		}
	}
	u.wakeHead = 0
}

// unpark releases a uop parked on an exception so it can issue again.
func (m *Machine) unpark(u *uop) {
	u.dtlbWait = false
	if u.stage == stageWindow && u.pending == 0 {
		m.addCand(u)
	}
}

// addCand puts a window uop with no pending producer on the candidate
// list, unless an earlier entry for it is still there.
func (m *Machine) addCand(u *uop) {
	if u.inCand || u.dtlbWait {
		return
	}
	u.inCand = true
	//lint:allow hotpathlint append into capacity retained across cycles; bounded by the window's high-water mark
	m.cands = append(m.cands, ref(u))
}

// collectReady gathers window-resident instructions ready to issue,
// oldest scheduled age first (the paper's scheduling policy). It
// compacts the candidate list on the way: entries whose uop was
// released, issued or parked since they joined drop out.
func (m *Machine) collectReady() []uopIdx {
	ready := m.readyScratch[:0]
	keep := m.cands[:0]
	for _, r := range m.cands {
		u := m.uopAt(r)
		if u == nil {
			continue
		}
		if u.stage != stageWindow || u.dtlbWait {
			u.inCand = false
			continue
		}
		//lint:allow hotpathlint in-place compaction into the candidate list's own backing array; never grows
		keep = append(keep, r)
		if u.readyAt <= m.now {
			//lint:allow hotpathlint append into capacity-retained scratch (readyScratch); amortized zero alloc
			ready = append(ready, r.idx)
		}
	}
	m.cands = keep
	// Insertion sort on (schedSeq, seq): candidates join in roughly
	// age order, so the list is nearly sorted already and the sort
	// runs in linear time without sort.Slice's allocations.
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0 && uopLess(m.at(ready[j]), m.at(ready[j-1])); j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
		}
	}
	m.readyScratch = ready
	return ready
}

// uopLess orders uops oldest scheduled age first, ties by fetch order.
func uopLess(a, b *uop) bool {
	if a.schedSeq != b.schedSeq {
		return a.schedSeq < b.schedSeq
	}
	return a.seq < b.seq
}
