package vmachine

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// ProcInfo describes one linked procedure.
type ProcInfo struct {
	Name       string
	Entry      int // byte PC of the procedure's first instruction
	End        int // byte PC one past the procedure's last instruction
	FrameWords int64
	NumArgs    int
	// Result records whether the procedure returns a value in R0. The
	// static verifier needs it: only a function's ret reads R0, so only
	// there does R0 extend a pointer's live range across gc-points.
	Result bool
}

// Program is a linked executable image.
type Program struct {
	Name      string
	Code      []Instr
	PCOf      []int       // instruction index -> byte PC
	IdxOf     map[int]int // byte PC -> instruction index
	CodeBytes []byte
	Procs     []ProcInfo
	MainProc  int

	GlobalWords   int64
	GlobalPtrOffs []int64 // word offsets in the global area holding pointers

	Descs    *types.DescTable
	TextLits []string
	// TextDesc is the descriptor ID for ARRAY OF CHAR used by text
	// literals (valid whenever TextLits is non-empty).
	TextDesc int
}

// CodeSize returns the encoded code size in bytes (the paper's "Size").
func (p *Program) CodeSize() int { return len(p.CodeBytes) }

// FindProc returns the index of the procedure with the given name, or
// -1 if absent.
func (p *Program) FindProc(name string) int {
	for i := range p.Procs {
		if p.Procs[i].Name == name {
			return i
		}
	}
	return -1
}

// TrapCode identifies a runtime error.
type TrapCode int

// Runtime error codes.
const (
	TrapNilDeref TrapCode = iota
	TrapRangeError
	TrapIndexError
	TrapDivByZero
	TrapStackOverflow
	TrapOutOfMemory
	TrapBadAddress
	TrapUnreachable
	TrapNoCase // CASE selector matched no label and there is no ELSE
	// TrapQuotaExceeded is raised when an allocation fails because the
	// machine's per-instance heap quota (not the semispace itself) is
	// exhausted — a tenant-level failure a multi-tenant host can report
	// without treating it as machine memory exhaustion.
	TrapQuotaExceeded
)

var trapNames = map[TrapCode]string{
	TrapNilDeref:      "nil dereference",
	TrapRangeError:    "value out of range",
	TrapIndexError:    "array index out of bounds",
	TrapDivByZero:     "division by zero",
	TrapStackOverflow: "stack overflow",
	TrapOutOfMemory:   "out of memory",
	TrapBadAddress:    "bad memory address",
	TrapUnreachable:   "unreachable code",
	TrapNoCase:        "CASE selector matched no label",
	TrapQuotaExceeded: "heap quota exceeded",
}

// String names the trap code (the text used in RuntimeError messages).
func (c TrapCode) String() string {
	if s, ok := trapNames[c]; ok {
		return s
	}
	return fmt.Sprintf("trap(%d)", int(c))
}

// RuntimeError is a trap raised during execution.
type RuntimeError struct {
	Code   TrapCode
	PC     int // byte PC
	Thread int
	Detail string
}

func (e *RuntimeError) Error() string {
	s := fmt.Sprintf("runtime error: %s (thread %d, pc %d)", trapNames[e.Code], e.Thread, e.PC)
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Allocator is the machine's allocation interface (implemented by the
// semispace heap and by the conservative collector's free-list heap).
type Allocator interface {
	TryAlloc(descID int, n int64) (addr int64, ok bool)
}

// QuotaChecker is optionally implemented by allocators that enforce a
// per-instance quota below their real capacity. After a failed
// allocation that survived a collection, the machine asks whether the
// quota (rather than true space exhaustion) blocked it, and raises
// TrapQuotaExceeded instead of TrapOutOfMemory when so.
type QuotaChecker interface {
	QuotaBlocked(descID int, n int64) bool
}

// Collector is invoked when allocation fails (single-threaded) or when
// a rendezvous completes (multi-threaded).
type Collector interface {
	Collect(m *Machine) error
}

// ConcurrentCollector is optionally implemented by collectors that can
// split a collection into an initial root-scan pause, incremental mark
// steps interleaved with execution, and a final pause that finishes the
// cycle. The machine drives the protocol from its scheduler: because
// every thread is a green thread on one scheduler goroutine, a
// MarkStep runs between instruction slices — never concurrently with a
// mutator — so the collector needs no synchronization against mutator
// writes beyond the SATB hook.
type ConcurrentCollector interface {
	Collector
	// ShouldStartCycle reports whether the next collection should run
	// as a concurrent cycle (false falls back to a synchronous Collect
	// — e.g. a generational minor, or concurrent marking disabled).
	ShouldStartCycle() bool
	// StartCycle begins a cycle at a safepoint (every live thread
	// parked): it snapshots the roots, arms the machine's SATB and
	// AllocMark hooks, and returns with marking in progress.
	StartCycle(m *Machine) error
	// MarkStep performs one bounded mark increment, returning done
	// when no gray objects remain (including barrier-logged ones).
	MarkStep(m *Machine) (done bool, err error)
	// FinishCycle completes the cycle at a safepoint once MarkStep has
	// reported done (CompleteCycle runs both): copies survivors,
	// patches roots, and disarms the hooks.
	FinishCycle(m *Machine) error
}

// Thread is one execution context.
type Thread struct {
	ID      int
	Regs    [16]int64
	FP, SP  int64
	PC      int // instruction index (not byte PC)
	StackLo int64
	StackHi int64
	Done    bool
	Blocked bool // parked at a gc-point during a rendezvous

	// parkNs is the telemetry timestamp at which the thread parked for
	// the pending rendezvous (0 when telemetry is off).
	parkNs int64

	// resumeSkip advances PC past the parked instruction after a
	// rendezvous (used by forced collections, which must not re-run).
	resumeSkip bool
	// allocRetried marks an allocation that already survived one
	// collection; a second failure is an out-of-memory trap — except
	// under a concurrent collector, where the first collection retains
	// objects allocated black during its marking, so the thread is owed
	// one complete synchronous collection (allocSynced) before the trap.
	allocRetried bool
	// allocSynced marks that the pending allocation already got its
	// post-concurrent synchronous collection; the next failure traps.
	allocSynced bool
	// stressed marks that the stress-mode collection for the current
	// instruction already ran (allocations re-execute after GC).
	stressed bool
	// prevOp is the previously executed opcode, feeding the telemetry
	// bigram sampler that picks superinstruction fusions.
	prevOp Op
}

// CurrentGCPointPC returns the byte PC identifying the thread's current
// gc-point: the address of the instruction after the one about to
// execute (the "return address" convention used by the tables).
func (t *Thread) CurrentGCPointPC(p *Program) int {
	return p.PCOf[t.PC+1]
}

// Config sizes a machine.
type Config struct {
	HeapWords    int64 // total heap region (two semispaces)
	StackWords   int64 // per-thread stack
	GlobalsExtra int64 // reserved extra global words (testing)
	MaxThreads   int
	Out          io.Writer
	// Quantum is the pre-emption interval in instructions for
	// multi-threaded execution.
	Quantum int64
	// StressGC forces a collection at every gc-point (single-threaded
	// table validation mode).
	StressGC bool
	// Fuel is the default step budget for RunFuel(0): after this many
	// instructions in one slice the machine yields (not traps) at the
	// next blocking gc-point, resumable by another RunFuel call. 0
	// means RunFuel(0) runs to completion. Run ignores it.
	Fuel int64
	// HeapQuota caps the words usable per semispace below the
	// semispace size (0 = no cap). Exceeding it raises
	// TrapQuotaExceeded, distinct from TrapOutOfMemory, so a
	// multi-tenant host can bill the failure to the tenant. The driver
	// reads it when building the heap; the machine itself does not.
	HeapQuota int64
	// Tel, when non-nil, receives VM telemetry: per-opcode instruction
	// counts, rendezvous latency, and per-thread gc-point wait times.
	Tel *telemetry.Tracer
	// PCSampleEvery samples the executing byte PC every N instructions
	// when Tel is set (0 disables sampling).
	PCSampleEvery int64
}

// DefaultConfig returns a reasonable machine sizing.
func DefaultConfig() Config {
	return Config{HeapWords: 1 << 20, StackWords: 1 << 16, MaxThreads: 8, Quantum: 1000}
}

const guardWords = 16

// Machine executes a linked Program.
type Machine struct {
	Prog *Program
	Mem  []int64
	Out  io.Writer

	GlobalBase int64
	HeapLo     int64
	HeapHi     int64

	Alloc     Allocator
	Collector Collector
	// Barrier, when set, is invoked by OpStB before each barriered
	// pointer store with the target slot address and the stored value
	// (the generational collector's store check).
	Barrier func(slot, val int64)
	// SATB, when set, receives the overwritten old value of every
	// barriered pointer store (and of the pointer fields OpReuse zeroes)
	// — the snapshot-at-the-beginning write barrier. A concurrent
	// collector arms it in StartCycle and disarms it in FinishCycle, so
	// outside an active cycle every store pays exactly one nil check.
	SATB func(old int64)
	// AllocMark, when set, receives the address of every freshly
	// allocated (or compile-time-reused) object so allocations during a
	// concurrent mark cycle are black-allocated: they survive the cycle
	// without being scanned. Armed and disarmed with SATB.
	AllocMark func(addr int64)

	Threads []*Thread
	Cur     *Thread // thread currently executing (set during Step)

	// GCRequested is set while a multi-threaded rendezvous is pending.
	GCRequested bool
	// Requester is the thread that triggered the pending collection.
	Requester *Thread
	// concActive is set while a concurrent mark cycle is in progress:
	// the collector's StartCycle has run, mutators are executing with
	// the SATB barrier armed, and the scheduler calls MarkStep at pass
	// boundaries until marking is done, then rendezvouses for the final
	// pause.
	concActive bool
	// concRequester is the thread whose rendezvous started the active
	// cycle; the final pause resumes it the way a synchronous
	// collection would have.
	concRequester *Thread
	// syncGC forces the next rendezvous to collect synchronously
	// instead of starting a concurrent cycle: an allocation that failed
	// even after a full cycle needs a collection with no floating
	// garbage before it may trap out-of-memory.
	syncGC bool

	Steps int64
	// Reuses counts executed OpReuse instructions: allocations the
	// compile-time heap-liveness pass satisfied in place instead of
	// bumping the heap.
	Reuses     int64
	GCCount    int64
	StressGC   bool
	stackNext  int64
	stackWords int64
	quantum    int64

	// Yielded reports that the last RunFuel call stopped at a blocking
	// gc-point with budget exhausted (resumable), as opposed to the
	// machine halting.
	Yielded bool
	// fuel is Config.Fuel, the default RunFuel slice budget.
	fuel int64
	// passIdx/passQ persist the round-robin scheduler position (thread
	// index within the current pass, steps consumed of that thread's
	// quantum) across a yield, so a fuel-sliced run interleaves threads
	// exactly like an unsliced one.
	passIdx int
	passQ   int64
	// passRan records whether any thread made progress this pass (the
	// deadlock check), surviving a mid-pass yield.
	passRan bool

	// threaded, when non-nil, is the per-instruction dispatch table
	// built by EnableThreadedDispatch; nil keeps the switch interpreter
	// (the zero-value default, so differential runs can compare both).
	threaded []tentry
	// retIdx maps byte PCs to instruction indices for RET under
	// threaded dispatch (-1 = not an instruction start), replacing the
	// IdxOf map lookup on every return.
	retIdx []int32
	// fastHeap is m.Alloc when it is the concrete semispace heap,
	// enabling the bump-pointer allocation fast path in the threaded
	// NEW handlers (nil for custom or conservative allocators).
	fastHeap *heap.Heap
	// Fused counts the superinstruction sites in the threaded table.
	Fused int

	// Tel, when non-nil, enables the VM probes; every probe is guarded
	// by a nil check so an untraced machine pays one branch per site.
	Tel           *telemetry.Tracer
	pcSampleEvery int64
	opCounts      [numOps]int64
	gcRequestNs   int64 // telemetry timestamp of the pending rendezvous request
	mSteps        *telemetry.Counter
	hWait         *telemetry.Histogram
}

// New builds a machine for prog. The caller attaches an Allocator and a
// Collector before running.
func New(prog *Program, cfg Config) *Machine {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1000
	}
	globalBase := int64(guardWords)
	stackBase := globalBase + prog.GlobalWords + cfg.GlobalsExtra
	heapLo := stackBase + int64(cfg.MaxThreads)*cfg.StackWords
	heapHi := heapLo + cfg.HeapWords
	m := &Machine{
		Prog:       prog,
		Mem:        make([]int64, heapHi),
		Out:        cfg.Out,
		GlobalBase: globalBase,
		HeapLo:     heapLo,
		HeapHi:     heapHi,
		StressGC:   cfg.StressGC,
		stackNext:  stackBase,
		stackWords: cfg.StackWords,
		quantum:    cfg.Quantum,
		fuel:       cfg.Fuel,
	}
	m.SetTracer(cfg.Tel)
	m.pcSampleEvery = cfg.PCSampleEvery
	return m
}

// SetTracer attaches (or, with nil, detaches) VM telemetry, resolving
// the metric handles once so the step loop stays map-free.
func (m *Machine) SetTracer(t *telemetry.Tracer) {
	m.Tel = t
	if t == nil {
		m.mSteps, m.hWait = nil, nil
		return
	}
	m.mSteps = t.Counter(telemetry.CtrVMSteps)
	m.hWait = t.Histogram(telemetry.HistGCWaitNs)
}

// OpCount is one entry of the per-opcode execution profile.
type OpCount struct {
	Op    Op
	Count int64
}

// OpCounts returns the non-zero per-opcode instruction counts recorded
// while telemetry was attached, highest count first.
func (m *Machine) OpCounts() []OpCount {
	var out []OpCount
	for op, n := range m.opCounts {
		if n > 0 {
			out = append(out, OpCount{Op: Op(op), Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// park blocks t for the pending rendezvous, stamping the wait start.
func (m *Machine) park(t *Thread) {
	t.Blocked = true
	if m.Tel != nil {
		t.parkNs = m.Tel.Now()
	}
}

// requestGC begins a multi-threaded rendezvous on behalf of t.
func (m *Machine) requestGC(t *Thread) {
	m.GCRequested = true
	m.Requester = t
	if m.Tel != nil {
		m.gcRequestNs = m.Tel.Now()
	}
	m.park(t)
}

// HaltPC is the byte PC of the synthetic halt instruction the linker
// places at the start of the code stream; it doubles as the sentinel
// return address of a thread's root frame.
const HaltPC = 0

// Spawn creates a thread that will run procedure procIdx with the given
// word arguments. The root frame's saved FP is 0, which terminates
// stack walks.
func (m *Machine) Spawn(procIdx int, args ...int64) (*Thread, error) {
	if m.stackNext+m.stackWords > m.HeapLo {
		return nil, fmt.Errorf("vmachine: too many threads")
	}
	t := &Thread{
		ID:      len(m.Threads),
		StackLo: m.stackNext,
		StackHi: m.stackNext + m.stackWords,
	}
	m.stackNext += m.stackWords
	proc := &m.Prog.Procs[procIdx]
	if len(args) != proc.NumArgs {
		return nil, fmt.Errorf("vmachine: %s expects %d args, got %d", proc.Name, proc.NumArgs, len(args))
	}
	t.SP = t.StackHi - int64(len(args))
	for j, a := range args {
		m.Mem[t.SP+int64(j)] = a
	}
	t.SP--
	m.Mem[t.SP] = HaltPC // return address: the halt instruction
	t.FP = 0             // sentinel saved-FP for the stack walker
	t.PC = m.Prog.IdxOf[proc.Entry]
	m.Threads = append(m.Threads, t)
	return t, nil
}

func (m *Machine) trap(code TrapCode, detail string) *RuntimeError {
	pc := 0
	tid := -1
	if m.Cur != nil {
		if m.Cur.PC >= 0 && m.Cur.PC < len(m.Prog.PCOf) {
			pc = m.Prog.PCOf[m.Cur.PC]
		}
		tid = m.Cur.ID
	}
	return &RuntimeError{Code: code, PC: pc, Thread: tid, Detail: detail}
}

// concCollector returns the attached collector's concurrent interface,
// or nil when the collector is synchronous-only.
func (m *Machine) concCollector() ConcurrentCollector {
	cc, _ := m.Collector.(ConcurrentCollector)
	return cc
}

// ConcMarkActive reports whether a concurrent mark cycle is in
// progress (tests and hosts observe it; mutator code never needs to).
func (m *Machine) ConcMarkActive() bool { return m.concActive }

// storeBarriered performs a barriered pointer store: the generational
// store check sees the new value, the SATB hook sees the overwritten
// one, then the word is written. Shared by the switch interpreter, the
// threaded OpStB handler, and the fused superinstruction bodies so all
// four dispatch paths have identical barrier semantics.
func (m *Machine) storeBarriered(addr, v int64) *RuntimeError {
	if addr < guardWords || addr >= int64(len(m.Mem)) {
		return m.trap(TrapBadAddress, fmt.Sprintf("write of %d", addr))
	}
	if m.Barrier != nil {
		m.Barrier(addr, v)
	}
	if m.SATB != nil {
		m.SATB(m.Mem[addr])
	}
	m.Mem[addr] = v
	return nil
}

// collectNow runs a full synchronous collection on behalf of the
// current thread — the single-threaded / inline path. If a concurrent
// cycle is active it is drained and finished (so the collector and
// machine state never desynchronize); if the collector wants to run
// concurrently but no other thread is running, the whole split cycle
// executes back-to-back here, which is bitwise identical to a
// stop-the-world collection because zero mutator instructions
// intervene.
func (m *Machine) collectNow() error {
	if m.concActive {
		return m.finishConcCycle()
	}
	return m.Collector.Collect(m)
}

// CompleteCycle ends cc's cycle at a safepoint: it runs mark bursts
// until marking is complete, then the final pause. The bursts are
// serial MarkSteps, timed and counted as mark bursts rather than as
// part of FinishCycle, which only walks, checks and copies; mutators
// stay stopped across both.
func CompleteCycle(cc ConcurrentCollector, m *Machine) error {
	for {
		done, err := cc.MarkStep(m)
		if err != nil {
			return err
		}
		if done {
			return cc.FinishCycle(m)
		}
	}
}

// finishConcCycle finishes the active concurrent cycle (CompleteCycle),
// then clears the cycle state. The caller counts the collection.
func (m *Machine) finishConcCycle() error {
	cc := m.concCollector()
	if cc == nil {
		m.concActive = false
		m.concRequester = nil
		return fmt.Errorf("vmachine: concurrent cycle active without a concurrent collector")
	}
	err := CompleteCycle(cc, m)
	m.concActive = false
	m.concRequester = nil
	if err == nil {
		// Memory is reclaimed: release every thread parked waiting on
		// it (threads whose park IS a pending collection stay parked
		// through StartCycle and depend on this). The scheduler's own
		// finish path re-runs this; it is idempotent. Inline finishes
		// (allocation retry, OpGcCollect, stress) need it here or the
		// waiters would sleep forever.
		m.GCRequested = false
		m.Requester = nil
		m.unparkBlocked(nil)
	}
	return err
}

// collectFully finishes any active concurrent cycle, then runs one
// complete synchronous collection — the strongest reclamation the
// machine can perform, used before an allocation gives up. Counts
// every collection it runs.
func (m *Machine) collectFully() error {
	if m.concActive {
		if err := m.finishConcCycle(); err != nil {
			return err
		}
		m.GCCount++
	}
	if err := m.Collector.Collect(m); err != nil {
		return err
	}
	m.GCCount++
	return nil
}

// read and write check the guard region and machine bounds.
func (m *Machine) read(addr int64) (int64, *RuntimeError) {
	if addr < guardWords || addr >= int64(len(m.Mem)) {
		return 0, m.trap(TrapBadAddress, fmt.Sprintf("read of %d", addr))
	}
	return m.Mem[addr], nil
}

func (m *Machine) write(addr, v int64) *RuntimeError {
	if addr < guardWords || addr >= int64(len(m.Mem)) {
		return m.trap(TrapBadAddress, fmt.Sprintf("write of %d", addr))
	}
	m.Mem[addr] = v
	return nil
}
