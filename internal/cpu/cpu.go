// Package cpu implements a cycle-stepped out-of-order processor core that
// replays instruction traces, standing in for SimpleScalar 3.0's
// sim-outorder (§4.1, Figure 9).
//
// The model covers the structures that drive the paper's experiments: a
// 4-wide fetch/issue/commit pipeline with a 16-entry instruction fetch
// queue, a register-update-unit-style reorder buffer, an 8-entry
// load/store queue with store-to-load forwarding, a bimodal branch
// predictor, an instruction cache, the functional-unit mix of Figure 9,
// and a data-cache hierarchy behind the memsys.System interface.
//
// Timing statistics exposed for the experiments: total cycles (Figures 11
// and 14) and the average ready-queue length during cycles with at least
// one outstanding data-cache miss (Figure 15).
package cpu

import (
	"context"
	"fmt"

	"cppcache/internal/core"
	"cppcache/internal/hier"
	"cppcache/internal/isa"
	"cppcache/internal/mach"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
	"cppcache/internal/trace"
)

// Params configures the core. The zero value is not useful; start from
// DefaultParams.
type Params struct {
	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions issued per cycle (4, out-of-order)
	CommitWidth int // instructions committed per cycle
	IFQSize     int // instruction fetch queue entries (16)
	ROBSize     int // reorder buffer (RUU) entries
	LSQSize     int // load/store queue entries (8)

	IntALU   int // integer ALUs (4)
	IntMult  int // integer multiplier/dividers (1)
	FPALU    int // floating-point adders (4)
	FPMult   int // floating-point multiplier/dividers (1)
	MemPorts int // cache ports (2)

	BranchPredBits    int // log2 of bimod table entries
	MispredictPenalty int // front-end refill cycles after a mispredict

	ICacheLines   int // direct-mapped I-cache size in lines
	ICacheLineSz  int // I-cache line size in bytes
	ICacheHitLat  int // 1 cycle
	ICacheMissLat int // 10 cycles

	// Latencies of non-memory operations, in cycles.
	MulLat, DivLat, FALULat, FMulLat, FDivLat int

	// MissThreshold classifies a data access as an outstanding miss when
	// its latency exceeds this many cycles. 2 covers both an L1 primary
	// hit (1) and a CPP affiliated-line hit (2).
	MissThreshold int
}

// DefaultParams returns the paper's baseline core (Figure 9).
func DefaultParams() Params {
	return Params{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		IFQSize:     16,
		ROBSize:     64,
		LSQSize:     8,

		IntALU:   4,
		IntMult:  1,
		FPALU:    4,
		FPMult:   1,
		MemPorts: 2,

		BranchPredBits:    11, // 2K-entry bimod
		MispredictPenalty: 3,

		ICacheLines:   256, // 8K direct-mapped, 32B lines
		ICacheLineSz:  32,
		ICacheHitLat:  1,
		ICacheMissLat: 10,

		MulLat:  3,
		DivLat:  20,
		FALULat: 2,
		FMulLat: 4,
		FDivLat: 12,

		MissThreshold: 2,
	}
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	switch {
	case p.FetchWidth < 1 || p.IssueWidth < 1 || p.CommitWidth < 1:
		return fmt.Errorf("cpu: widths must be at least 1")
	case p.IFQSize < 1 || p.ROBSize < 1 || p.LSQSize < 1:
		return fmt.Errorf("cpu: queue sizes must be at least 1")
	case p.IntALU < 1 || p.MemPorts < 1:
		return fmt.Errorf("cpu: need at least one ALU and one memory port")
	case p.BranchPredBits < 1 || p.BranchPredBits > 24:
		return fmt.Errorf("cpu: branch predictor bits out of range")
	case !mach.IsPow2(p.ICacheLines) || !mach.IsPow2(p.ICacheLineSz):
		return fmt.Errorf("cpu: I-cache geometry must be powers of two")
	}
	return nil
}

// Result summarises one simulated run.
type Result struct {
	Cycles       int64
	Instructions int64
	Loads        int64
	Stores       int64
	Branches     int64
	Mispredicts  int64

	ICacheAccesses int64
	ICacheMisses   int64

	// ValueMismatches counts loads whose hierarchy-returned value did not
	// match the trace's expected value: a functional-correctness check of
	// the cache model (always 0 for a healthy hierarchy).
	ValueMismatches int64

	// Ready-queue instrumentation (Figure 15): the summed length of the
	// ready queue over cycles with >= 1 outstanding data-cache miss, and
	// the number of such cycles.
	MissCycles        int64
	ReadyQueueInMiss  int64
	ReadyQueueSamples int64 // == MissCycles (kept for clarity)
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// AvgReadyQueueInMiss returns the average ready-queue length during cycles
// with at least one outstanding data-cache miss.
func (r Result) AvgReadyQueueInMiss() float64 {
	if r.MissCycles == 0 {
		return 0
	}
	return float64(r.ReadyQueueInMiss) / float64(r.MissCycles)
}

// robEntry is one in-flight instruction.
type robEntry struct {
	in        isa.Inst
	idx       int64 // dynamic instruction number
	issued    bool
	done      bool
	doneAt    int64 // cycle the result is available
	isMiss    bool  // memory op whose latency exceeded an L1 hit
	fetchedAt int64 // cycle the instruction left fetch (for IFQ modeling)
}

// Core is the simulated processor. Create with New; a Core is single-use:
// Run replays the trace once.
type Core struct {
	p    Params
	d    memsys.System
	pred *bimod
	ic   *icache

	// Devirtualized data-side fast paths: New recognises the two concrete
	// hierarchies and calls them directly from execute, so the per-access
	// hot path is a static call the compiler can see through instead of an
	// interface dispatch. Unknown implementations (tests, future systems)
	// fall back to the memsys.System interface.
	cppD *core.Hierarchy
	stdD *hier.Standard

	// obs, when non-nil, receives per-cycle metrics ticks and per-access
	// latency observations. The nil case costs one branch per hook.
	obs *obs.Recorder

	// fault, when non-nil, is invoked at the core's fault-injection point
	// (once per issued memory operation) with a site label. The chaos
	// harness uses it to trigger panics, stalls and cancellations at
	// deterministic execution points; nil costs one branch per memory op.
	fault func(site string)

	// Preallocated pipeline state, reused across every cycle of Run: ROB
	// and IFQ rings of entry values, the scheduling index structures, and
	// the register scoreboard.
	rob      []robEntry
	ifq      []robEntry
	unissued []int32     // ROB positions of dispatched-but-unissued entries, oldest first
	lsq      []flightRec // dispatched-but-unissued memory ops, program order
	memInfl  []flightRec // issued memory ops still completing, lazily compacted
	aluInfl  []flightRec // issued non-memory ops still completing (latency > 1)
	writerOf []int64     // virtual reg -> dynamic idx of last dispatched writer, -1 if none

	// regReadyAt[r] is the cycle the latest dispatched writer of register
	// r completes: readyUnknown while that writer has not issued, its
	// doneAt afterwards. Together with writerOf it answers the readiness
	// question without touching the ROB entry itself.
	regReadyAt []int64

	// lastMissDoneAt is the largest completion cycle of any issued miss in
	// the current run. An entry with doneAt > cycle cannot have committed
	// (commit requires doneAt <= cycle), so "some in-flight miss is
	// outstanding" is exactly lastMissDoneAt > cycle — the per-cycle ROB
	// scan the instrumentation used to do, in one comparison.
	lastMissDoneAt int64
}

// flightRec is a weak reference to a ROB entry: pos names the ring slot
// and idx the dynamic instruction expected there. Dynamic indices are
// never reused, so a record whose idx no longer matches the slot simply
// refers to a committed instruction and is dropped on the next
// compaction; no eager removal is needed anywhere. Memory-op records
// carry the word-aligned address and store flag so the disambiguation
// conflict scans never touch the ROB entry itself.
type flightRec struct {
	idx int64
	wa  mach.Addr
	pos int32
	st  bool
}

// readyUnknown marks a register whose latest writer has not issued yet;
// it compares greater than any reachable cycle.
const readyUnknown = int64(1) << 62

// New builds a core over the given data-memory hierarchy.
func New(p Params, d memsys.System) (*Core, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		p:    p,
		d:    d,
		pred: newBimod(p.BranchPredBits),
		ic:   newICache(p.ICacheLines, p.ICacheLineSz),

		rob:      make([]robEntry, p.ROBSize),
		ifq:      make([]robEntry, p.IFQSize),
		unissued: make([]int32, 0, p.ROBSize),
		lsq:      make([]flightRec, 0, 2*p.ROBSize),
		memInfl:  make([]flightRec, 0, 2*p.ROBSize),
		aluInfl:  make([]flightRec, 0, 2*p.ROBSize),
	}
	switch h := d.(type) {
	case *core.Hierarchy:
		c.cppD = h
	case *hier.Standard:
		c.stdD = h
	}
	return c, nil
}

// SetRecorder attaches the observability recorder (nil detaches). Must be
// called before Run.
func (c *Core) SetRecorder(r *obs.Recorder) { c.obs = r }

// SetFaultHook installs fn at the core's fault-injection point (nil
// removes it). Must be called before Run.
func (c *Core) SetFaultHook(fn func(site string)) { c.fault = fn }

// cancelCheckEvery is the cadence, in scheduler iterations, of the
// cooperative cancellation poll in RunContext. Each iteration advances
// simulated time by at least one cycle, so a canceled context is observed
// within this many cycles of work; the poll itself is a single non-blocking
// channel receive, cheap enough to sit inside the pinned throughput
// baseline's noise band (see BENCH_simperf.json and EXPERIMENTS.md).
const cancelCheckEvery = 4096

// stallSentinel marks the front end as blocked until an unresolved
// mispredicted branch completes.
const stallSentinel = int64(1) << 40

// Run replays the trace to completion and returns timing statistics. It
// is RunContext with a background (never-canceled) context.
func (c *Core) Run(d *trace.Decoded) Result {
	res, _ := c.RunContext(context.Background(), d)
	return res
}

// RunContext replays the trace from its first instruction to completion
// and returns timing statistics. Fetch indexes the decoded trace's
// struct-of-arrays buffers directly: no interface call and no record copy
// per instruction.
//
// The pipeline state lives in preallocated rings (c.rob, c.ifq) and
// scratch slices, so the steady-state loop performs no heap allocation.
// Cycles in which no stage can make progress — every in-flight result is
// scheduled for a later cycle and the front end is stalled — are
// fast-forwarded to the next completion time instead of being stepped one
// by one; the skipped cycles are behaviourally identical no-ops, and their
// ready-queue/miss instrumentation is accumulated in closed form so the
// statistics match single-stepping exactly.
//
// Cancellation is cooperative: every cancelCheckEvery scheduler iterations
// the core polls ctx.Done() and, when the context is canceled or its
// deadline has expired, abandons the run and returns the partial statistics
// together with ctx's error. A context that can never be canceled (Done()
// == nil, e.g. context.Background()) skips the polling entirely.
func (c *Core) RunContext(ctx context.Context, d *trace.Decoded) (Result, error) {
	done := ctx.Done()
	var (
		iters           int64
		res             Result
		cycle           int64
		fetchStallUntil int64 // front-end blocked until this cycle (mispredict)
		fetchDone       bool
		instSeq         int64

		headIdx int64 // dynamic idx of the ROB head == instructions committed
		robHead int   // ring position of the oldest ROB entry
		robLen  int
		ifqHead int // ring position of the oldest IFQ entry
		ifqLen  int
		lsqOcc  int // memory ops in the ROB not yet issued

		// Branch-presence counters gate the mispredict-resolution scan: an
		// unissued ROB branch is necessarily incomplete and an IFQ branch
		// necessarily unresolved, so while either counter is non-zero the
		// scan's outcome is known to be "unresolved" without walking
		// anything.
		robBranchUnissued int
		ifqBranches       int
	)
	rob, ifq := c.rob, c.ifq
	unissued := c.unissued[:0]
	robSize, ifqSize := c.p.ROBSize, c.p.IFQSize
	c.lastMissDoneAt = 0
	c.lsq = c.lsq[:0]
	c.memInfl = c.memInfl[:0]
	c.aluInfl = c.aluInfl[:0]
	for i := range c.writerOf {
		c.writerOf[i] = -1
		c.regReadyAt[i] = 0
	}

	dOps, dDests, dSrc1s, dSrc2s := d.Ops(), d.Dests(), d.Src1s(), d.Src2s()
	dAddrs, dValues, dPCs, dTakens := d.Addrs(), d.Values(), d.PCs(), d.Takens()
	dPos, dLen := 0, d.Len()

	// Drain loop: run until the trace is exhausted and the ROB is empty.
	for !fetchDone || robLen > 0 || ifqLen > 0 {
		cycle++
		if cycle > stallSentinel {
			panic("cpu: simulation did not converge")
		}
		if iters++; done != nil && iters%cancelCheckEvery == 0 {
			select {
			case <-done:
				res.Cycles = cycle
				return res, ctx.Err()
			default:
			}
		}

		// --- Commit: retire completed instructions in order. ---
		committed := 0
		for robLen > 0 && committed < c.p.CommitWidth {
			head := &rob[robHead]
			if !head.done || head.doneAt > cycle {
				break
			}
			robHead++
			if robHead == robSize {
				robHead = 0
			}
			robLen--
			headIdx++
			committed++
			res.Instructions++
		}

		// --- Issue: wake and select ready instructions, oldest first. ---
		issued := 0
		readyNotIssued := 0
		// LSQ ordering: a memory op must wait for every older memory op
		// to the same word when either is a store (conservative
		// disambiguation with exact addresses). Completed older ops can
		// never conflict, so the only candidates are the other unissued
		// memory ops (c.lsq, program order) and the issued-but-incomplete
		// ops still in flight (c.memInfl). Both lists carry weak
		// references; stale records are compacted away here, so every
		// record surviving the compaction was live at the start of this
		// issue phase — the conflict scans themselves run lazily inside
		// the selection loop, only for memory ops that are otherwise ready
		// to issue. Nothing to do unless some memory op is dispatched but
		// unissued (lsqOcc counts them).
		if lsqOcc > 0 {
			fl := c.memInfl
			w := 0
			for _, f := range fl {
				o := &rob[f.pos]
				if o.idx != f.idx || o.doneAt <= cycle {
					continue // committed slot reused, or complete
				}
				fl[w] = f
				w++
			}
			c.memInfl = fl[:w]
			lq := c.lsq
			lw := 0
			for _, l := range lq {
				e := &rob[l.pos]
				if e.idx != l.idx || e.issued {
					continue // issued since (and possibly committed)
				}
				lq[lw] = l
				lw++
			}
			c.lsq = lq[:lw]
		}

		// Only dispatched-but-unissued entries can issue; iterate just
		// those (in program order, same as the historical whole-ROB scan
		// minus its skipped entries), compacting the survivors in place.
		if len(unissued) > 0 {
			fu := fuPool{
				ialu: c.p.IntALU, imult: c.p.IntMult,
				falu: c.p.FPALU, fmult: c.p.FPMult,
				mem: c.p.MemPorts,
			}
			// ready() inlined by hand: hoisting the scoreboard slices out
			// of the per-entry loop is safe because setWriter can only
			// grow them during dispatch, after this block.
			writerOf, regReadyAt := c.writerOf, c.regReadyAt
			keep := unissued[:0]
			for _, upos := range unissued {
				e := &rob[upos]
				rdy := true
				if s := e.in.Src1; s >= 0 && int(s) < len(writerOf) {
					if w := writerOf[s]; w >= headIdx && w < e.idx && regReadyAt[s] > cycle {
						rdy = false
					}
				}
				if s := e.in.Src2; rdy && s >= 0 && int(s) < len(writerOf) {
					if w := writerOf[s]; w >= headIdx && w < e.idx && regReadyAt[s] > cycle {
						rdy = false
					}
				}
				if !rdy {
					keep = append(keep, upos)
					continue
				}
				// The instruction sits in the ready queue this cycle,
				// whether or not it wins an issue slot (the paper's
				// Figure 15 metric counts the queue at selection time).
				readyNotIssued++
				if e.in.Op.IsMem() {
					// Lazy disambiguation: scan the older unissued memory
					// ops, then the older in-flight ones. A record for an
					// op that issued earlier in this loop still blocks —
					// it was unissued when the phase began, exactly as the
					// historical up-front scan saw it.
					blocked := false
					ea := mach.WordAlign(e.in.Addr)
					eStore := e.in.Op == isa.OpStore
					eIdx := e.idx
					for _, f := range c.lsq {
						if f.idx < eIdx && f.wa == ea && (eStore || f.st) {
							blocked = true
							break
						}
					}
					if !blocked {
						for _, f := range c.memInfl {
							if f.idx < eIdx && f.wa == ea && (eStore || f.st) {
								blocked = true
								break
							}
						}
					}
					if blocked {
						keep = append(keep, upos)
						continue
					}
				}
				if issued >= c.p.IssueWidth || !fu.take(e.in.Op) {
					keep = append(keep, upos)
					continue
				}
				c.execute(e, upos, cycle, &res)
				if e.in.Op.IsMem() {
					lsqOcc--
				} else if e.in.Op == isa.OpBranch {
					robBranchUnissued--
				}
				issued++
			}
			unissued = keep
		}

		// --- Dispatch: IFQ -> ROB/LSQ. ---
		dispatched := 0
		for ifqLen > 0 && dispatched < c.p.IssueWidth && robLen < robSize {
			e := &ifq[ifqHead]
			if e.in.Op.IsMem() && lsqOcc >= c.p.LSQSize {
				break
			}
			ifqHead++
			if ifqHead == ifqSize {
				ifqHead = 0
			}
			ifqLen--
			tail := robHead + robLen
			if tail >= robSize {
				tail -= robSize
			}
			rob[tail] = *e
			robLen++
			unissued = append(unissued, int32(tail))
			if e.in.Dest != isa.NoReg {
				c.setWriter(e.in.Dest, e.idx)
			}
			if e.in.Op.IsMem() {
				lsqOcc++
				c.lsq = append(c.lsq, flightRec{
					idx: e.idx, wa: mach.WordAlign(e.in.Addr),
					pos: int32(tail), st: e.in.Op == isa.OpStore,
				})
			} else if e.in.Op == isa.OpBranch {
				ifqBranches--
				robBranchUnissued++
			}
			dispatched++
		}

		// --- Fetch: instructions -> IFQ, stalling on mispredicts and
		// I-cache misses. ---
		fetched := 0
		if cycle >= fetchStallUntil && !fetchDone {
			// The front end refills the whole IFQ in one cycle (the
			// historical FetchWidth guard never bound this loop, and the
			// pinned timing depends on that); fetched only feeds the
			// idle-cycle progress check below.
			for ifqLen < ifqSize {
				if dPos >= dLen {
					fetchDone = true
					break
				}
				in := isa.Inst{
					Op: dOps[dPos], Dest: dDests[dPos],
					Src1: dSrc1s[dPos], Src2: dSrc2s[dPos],
					Addr: dAddrs[dPos], Value: dValues[dPos],
					Taken: dTakens[dPos], PC: dPCs[dPos],
				}
				dPos++
				res.ICacheAccesses++
				if !c.ic.access(in.PC) {
					res.ICacheMisses++
					fetchStallUntil = cycle + int64(c.p.ICacheMissLat-c.p.ICacheHitLat)
				}
				tail := ifqHead + ifqLen
				if tail >= ifqSize {
					tail -= ifqSize
				}
				ifq[tail] = robEntry{in: in, idx: instSeq, fetchedAt: cycle}
				instSeq++
				ifqLen++
				fetched++
				if in.Op == isa.OpBranch {
					res.Branches++
					ifqBranches++
					if c.pred.predict(in.PC) != in.Taken {
						res.Mispredicts++
						// Fetch resumes after the branch resolves;
						// resolution is detected at issue time below.
						fetchStallUntil = stallSentinel // blocked until resolve
					}
					c.pred.update(in.PC, in.Taken)
					if fetchStallUntil > cycle {
						break
					}
				}
				if fetchStallUntil > cycle {
					break
				}
			}
		}
		// Resolve mispredict stalls: when the youngest unresolved branch
		// completes, the front end restarts after the penalty. Branches
		// still sitting in the IFQ are by construction unissued, so any
		// branch there keeps the stall in place — the counters make both
		// conditions one comparison, and the ROB walk (now only checking
		// issued branches' completion cycles) runs at most a couple of
		// times per mispredict instead of every stalled cycle.
		if fetchStallUntil == stallSentinel && robBranchUnissued == 0 && ifqBranches == 0 {
			resolved := true
			var resolveAt int64
			for i, pos := 0, robHead; i < robLen; i++ {
				e := &rob[pos]
				if pos++; pos == robSize {
					pos = 0
				}
				if e.in.Op != isa.OpBranch {
					continue
				}
				// Every ROB branch is issued (robBranchUnissued == 0),
				// hence done; only its completion cycle can hold the
				// stall.
				if e.doneAt > cycle {
					resolved = false
					break
				}
				if e.doneAt > resolveAt {
					resolveAt = e.doneAt
				}
			}
			if resolved {
				fetchStallUntil = resolveAt + int64(c.p.MispredictPenalty)
			}
		}

		// --- Instrumentation: ready-queue length during miss cycles. ---
		missOutstanding := c.lastMissDoneAt > cycle
		if missOutstanding {
			res.MissCycles++
			res.ReadyQueueSamples++
			res.ReadyQueueInMiss += int64(readyNotIssued)
		}

		// cycleWeight is how many cycles this iteration's machine state
		// stands for: 1, plus any cycles the fast-forward below skips.
		cycleWeight := int64(1)

		// --- Idle-cycle fast-forward. ---
		// If nothing moved this cycle, every time gate in the model is a
		// "doneAt > cycle" or "cycle >= fetchStallUntil" comparison, and
		// none of them can flip before the earliest pending completion.
		// All intervening cycles are exact replicas of this one, so jump
		// to just before that event and account their instrumentation in
		// closed form.
		if committed == 0 && issued == 0 && dispatched == 0 && fetched == 0 &&
			(!fetchDone || robLen > 0 || ifqLen > 0) {
			// Pending completions are exactly the valid in-flight records:
			// every issued op with remaining latency was pushed to one of
			// the two lists (one-cycle ops can never be pending once the
			// pipeline is idle), so the earliest event falls out of the
			// same compacting walks without touching the rest of the ROB.
			next := int64(1) << 62
			for li, fl := range [2][]flightRec{c.memInfl, c.aluInfl} {
				w := 0
				for _, f := range fl {
					e := &rob[f.pos]
					if e.idx != f.idx || e.doneAt <= cycle {
						continue
					}
					if e.doneAt < next {
						next = e.doneAt
					}
					fl[w] = f
					w++
				}
				if li == 0 {
					c.memInfl = fl[:w]
				} else {
					c.aluInfl = fl[:w]
				}
			}
			if !fetchDone && fetchStallUntil > cycle && fetchStallUntil != stallSentinel && fetchStallUntil < next {
				next = fetchStallUntil
			}
			if next == int64(1)<<62 {
				// No pending completion and a permanently stalled front
				// end: the state can never change again.
				panic("cpu: simulation did not converge")
			}
			if skipped := next - cycle - 1; skipped > 0 {
				if missOutstanding {
					res.MissCycles += skipped
					res.ReadyQueueSamples += skipped
					res.ReadyQueueInMiss += int64(readyNotIssued) * skipped
				}
				cycle += skipped
				cycleWeight += skipped
			}
		}

		if c.obs != nil {
			c.obs.Tick(cycle, cycleWeight, robLen, res.Instructions)
		}
	}

	res.Cycles = cycle
	return res, nil
}

// setWriter records idx as the last dispatched writer of register r,
// growing the scoreboard on demand (register ids are small and dense).
// The register's ready time is unknown until that writer issues.
func (c *Core) setWriter(r int32, idx int64) {
	if int(r) >= len(c.writerOf) {
		n := len(c.writerOf) * 2
		if n == 0 {
			n = 256
		}
		for n <= int(r) {
			n *= 2
		}
		grown := make([]int64, n)
		copy(grown, c.writerOf)
		for i := len(c.writerOf); i < n; i++ {
			grown[i] = -1
		}
		c.writerOf = grown
		grownReady := make([]int64, n)
		copy(grownReady, c.regReadyAt)
		c.regReadyAt = grownReady
	}
	c.writerOf[r] = idx
	c.regReadyAt[r] = readyUnknown
}

// execute issues e, the entry at ROB slot pos, at cycle, computing its
// completion time.
func (c *Core) execute(e *robEntry, pos int32, cycle int64, res *Result) {
	var lat int
	if e.in.Op.IsMem() {
		if c.obs != nil {
			// The attribution profiler charges the hierarchy events of
			// this access to the instruction's PC (attr.go).
			c.obs.SetAccessPC(e.in.PC)
		}
		if c.fault != nil {
			c.fault("cpu.mem-op")
		}
	}
	switch e.in.Op {
	case isa.OpLoad:
		v, l := c.read(e.in.Addr)
		if v != e.in.Value {
			res.ValueMismatches++
		}
		res.Loads++
		lat = l
		e.isMiss = l > c.p.MissThreshold
	case isa.OpStore:
		l := c.write(e.in.Addr, e.in.Value)
		res.Stores++
		lat = l
		e.isMiss = l > c.p.MissThreshold
	case isa.OpALU, isa.OpNop, isa.OpBranch:
		lat = 1
	case isa.OpMul:
		lat = c.p.MulLat
	case isa.OpDiv:
		lat = c.p.DivLat
	case isa.OpFALU:
		lat = c.p.FALULat
	case isa.OpFMul:
		lat = c.p.FMulLat
	case isa.OpFDiv:
		lat = c.p.FDivLat
	default:
		lat = 1
	}
	e.issued = true
	e.done = true
	e.doneAt = cycle + int64(lat)
	if e.isMiss && e.doneAt > c.lastMissDoneAt {
		c.lastMissDoneAt = e.doneAt
	}
	if d := e.in.Dest; d != isa.NoReg && c.writerOf[d] == e.idx {
		// Still the latest writer of its destination: publish the cycle
		// the register value becomes available.
		c.regReadyAt[d] = e.doneAt
	}
	if e.doneAt > cycle+1 {
		// Multi-cycle op: record it as in flight so disambiguation and the
		// idle fast-forward find pending completions without a ROB walk.
		// One-cycle ops are complete before either consumer can care.
		if e.in.Op.IsMem() {
			if len(c.memInfl) == cap(c.memInfl) {
				c.memInfl = compactInflight(c.rob, c.memInfl, cycle)
			}
			c.memInfl = append(c.memInfl, flightRec{
				idx: e.idx, wa: mach.WordAlign(e.in.Addr),
				pos: pos, st: e.in.Op == isa.OpStore,
			})
		} else {
			if len(c.aluInfl) == cap(c.aluInfl) {
				c.aluInfl = compactInflight(c.rob, c.aluInfl, cycle)
			}
			c.aluInfl = append(c.aluInfl, flightRec{idx: e.idx, pos: pos})
		}
	}
	if c.obs != nil && e.in.Op.IsMem() {
		if e.in.Op == isa.OpLoad {
			c.obs.ObserveLoadToUse(e.doneAt - e.fetchedAt)
		}
		if e.isMiss {
			c.obs.ObserveMissService(int64(lat))
		}
	}
}

// compactInflight drops in-flight records whose ROB slot was reused or
// whose op has completed. Called when a list is full before a push: live
// records never exceed the ROB size and each list's capacity is twice
// that, so a push after compaction never reallocates.
func compactInflight(rob []robEntry, fl []flightRec, cycle int64) []flightRec {
	w := 0
	for _, f := range fl {
		e := &rob[f.pos]
		if e.idx != f.idx || e.doneAt <= cycle {
			continue
		}
		fl[w] = f
		w++
	}
	return fl[:w]
}

// read dispatches a data-cache read to the concrete hierarchy when it is
// known, avoiding the interface call on the per-access hot path.
func (c *Core) read(a mach.Addr) (mach.Word, int) {
	if c.cppD != nil {
		return c.cppD.Read(a)
	}
	if c.stdD != nil {
		return c.stdD.Read(a)
	}
	return c.d.Read(a)
}

// write is the store-side counterpart of read.
func (c *Core) write(a mach.Addr, v mach.Word) int {
	if c.cppD != nil {
		return c.cppD.Write(a, v)
	}
	if c.stdD != nil {
		return c.stdD.Write(a, v)
	}
	return c.d.Write(a, v)
}

// fuPool tracks per-cycle functional-unit availability.
type fuPool struct {
	ialu, imult, falu, fmult, mem int
}

func (f *fuPool) take(op isa.Op) bool {
	var slot *int
	switch op {
	case isa.OpALU, isa.OpBranch, isa.OpNop:
		slot = &f.ialu
	case isa.OpMul, isa.OpDiv:
		slot = &f.imult
	case isa.OpFALU:
		slot = &f.falu
	case isa.OpFMul, isa.OpFDiv:
		slot = &f.fmult
	case isa.OpLoad, isa.OpStore:
		slot = &f.mem
	default:
		slot = &f.ialu
	}
	if *slot == 0 {
		return false
	}
	*slot--
	return true
}

// bimod is SimpleScalar's bimodal predictor: a table of 2-bit saturating
// counters indexed by PC.
type bimod struct {
	table []uint8
	mask  mach.Addr
}

func newBimod(bits int) *bimod {
	n := 1 << bits
	t := make([]uint8, n)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &bimod{table: t, mask: mach.Addr(n - 1)}
}

func (b *bimod) index(pc mach.Addr) int { return int((pc >> 2) & b.mask) }

func (b *bimod) predict(pc mach.Addr) bool { return b.table[b.index(pc)] >= 2 }

func (b *bimod) update(pc mach.Addr, taken bool) {
	i := b.index(pc)
	if taken {
		if b.table[i] < 3 {
			b.table[i]++
		}
	} else if b.table[i] > 0 {
		b.table[i]--
	}
}

// icache is a direct-mapped instruction cache over the PC stream.
type icache struct {
	tags  []mach.Addr
	valid []bool
	geom  mach.LineGeom
	mask  mach.Addr
}

func newICache(lines, lineBytes int) *icache {
	return &icache{
		tags:  make([]mach.Addr, lines),
		valid: make([]bool, lines),
		geom:  mach.LineGeom{LineBytes: lineBytes},
		mask:  mach.Addr(lines - 1),
	}
}

// access returns true on hit, filling on miss.
func (ic *icache) access(pc mach.Addr) bool {
	n := ic.geom.LineNumber(pc)
	i := int(n & ic.mask)
	if ic.valid[i] && ic.tags[i] == n {
		return true
	}
	ic.valid[i] = true
	ic.tags[i] = n
	return false
}
