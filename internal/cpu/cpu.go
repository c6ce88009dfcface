// Package cpu implements a cycle-stepped out-of-order processor core that
// replays instruction traces, standing in for SimpleScalar 3.0's
// sim-outorder (§4.1, Figure 9).
//
// The model covers the structures that drive the paper's experiments: a
// 4-wide issue/commit pipeline with a 16-entry instruction fetch queue, a
// register-update-unit-style reorder buffer, an 8-entry load/store queue,
// a bimodal branch predictor, an instruction cache, the functional-unit
// mix of Figure 9, and a data-cache hierarchy behind the memsys.System
// interface. Two sim-outorder behaviours are not modelled. The front end
// refills the whole fetch queue in one cycle, whatever FetchWidth says.
// And the load/store queue does not forward: a load to a word with an
// older store in flight waits for that store to complete and then reads
// the data cache.
//
// Scheduling is event-driven, like sim-outorder's RUU. Register
// dependences come resolved from the decoded trace (each source names its
// producer), and memory ordering is resolved at dispatch: an instruction
// links onto every older unissued instruction it waits on, and issuing an
// instruction wakes the ones linked to it. Issue walks only instructions
// whose register producers have all issued, oldest first; no stage
// rescans the ROB or a load/store list per cycle.
//
// Timing statistics exposed for the experiments: total cycles (Figures 11
// and 14) and the average ready-queue length during cycles with at least
// one outstanding data-cache miss (Figure 15).
package cpu

import (
	"context"
	"fmt"
	"math/bits"

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
	FetchWidth  int // Figure 9's fetch width; validated, not modelled: fetch refills the IFQ each cycle
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

	// Ready-queue instrumentation (Figure 15): the number of cycles with
	// >= 1 outstanding data-cache miss, and the summed length of the ready
	// queue over them.
	MissCycles       int64
	ReadyQueueInMiss int64
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

// robEntry is one in-flight instruction: its trace index and the timing
// state the pipeline needs. Operands, address and value stay in the
// decoded trace's columns, read through idx where a stage needs them.
//
// An entry waits on two kinds of older instructions, both linked at
// dispatch: its register producers (regWait counts the unissued ones,
// readyAt holds the latest completion of the issued ones) and, for a
// memory op, the older ops to the same word with a store on either side
// (memWait and memReadyAt). Issuing an instruction walks its consumer
// list (deps) and folds its completion cycle into each consumer.
type robEntry struct {
	idx        int   // trace index == dynamic instruction number
	doneAt     int64 // cycle the result is available; notIssued until issue
	readyAt    int64 // latest doneAt of the issued register producers
	memReadyAt int64 // latest doneAt of the issued memory-order blockers
	fetchedAt  int64 // cycle the instruction left fetch (load-to-use latency)
	prevMem    int   // memory ops: trace index of the previous one in its memBucket, -1 if none
	deps       int32 // head of this entry's consumer list in Core.links, -1 if empty
	memWait    int32 // unissued memory-order blockers
	regWait    uint8 // unissued register producers
	op         isa.Op
}

// notIssued is the doneAt of an entry that has not issued; it compares
// greater than any reachable cycle, so commit needs no separate flag.
const notIssued = int64(1) << 62

// link is one node of a producer's consumer list: the consumer's ROB slot
// and whether it waits on the producer's register or on memory order.
type link struct {
	next int32
	pos  int32
	mem  bool
}

// memBuckets is the number of word-address buckets the core chains the
// ROB's memory ops in (Core.memLast, robEntry.prevMem), so a dispatching
// memory op finds the older ops to its word without a ROB walk.
const memBuckets = 256

func memBucket(wa mach.Addr) int { return int(wa/mach.WordBytes) & (memBuckets - 1) }

// Functional-unit classes (Figure 9). An issuing op holds one unit of its
// class for the cycle.
const (
	fuIntALU = iota // also branches, nops and unknown opcodes
	fuIntMult
	fuFPALU
	fuFPMult
	fuMem
	numFU
)

// fuClass maps each opcode to its functional-unit class.
var fuClass = [256]uint8{
	isa.OpMul: fuIntMult, isa.OpDiv: fuIntMult,
	isa.OpFALU: fuFPALU,
	isa.OpFMul: fuFPMult, isa.OpFDiv: fuFPMult,
	isa.OpLoad: fuMem, isa.OpStore: fuMem,
}

// Core is the simulated processor. Create with New; a Core is single-use:
// Run replays the trace once.
type Core struct {
	p       Params
	d       memsys.System
	pred    *bimod
	ic      *icache
	fuUnits [numFU]int

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

	// Preallocated pipeline state, reused across every cycle of Run. The
	// ROB and IFQ hold consecutive trace indices, so both are rings
	// indexed by trace index modulo their power-of-two length (at least
	// the configured size): a producer's ROB slot follows from its index,
	// and the IFQ keeps only each instruction's fetch cycle.
	rob []robEntry
	ifq []int64

	// ready is a bitset over ROB slots: dispatched, unissued, every
	// register producer issued, and the operands available by the next
	// cycle. Issue walks it oldest-first from the ROB head instead of
	// rescanning every unissued entry. An entry whose operands arrive
	// later sleeps in the sleeping bitset until nextWake, the earliest
	// ready time among the sleepers, so issue does not revisit it every
	// cycle while it waits out a producer's latency.
	ready, sleeping []uint64
	nextWake        int64

	// links holds every consumer list; freed nodes chain from freeLink.
	links    []link
	freeLink int32

	// memLast is the trace index of the youngest memory op dispatched to
	// each memBucket (-1 if none); entries chain to older ones through
	// prevMem, and the chain ends at the first committed index.
	memLast [memBuckets]int

	// infl holds the trace indices of issued ops still completing
	// (latency > 1), lazily compacted; the idle fast-forward takes the
	// earliest completion from it without a ROB walk.
	infl []int

	// The current run's trace columns that execute reads.
	addrs  []mach.Addr
	values []mach.Word
	pcs    []mach.Addr

	// lastMissDoneAt is the largest completion cycle of any issued miss in
	// the current run. An entry with doneAt > cycle cannot have committed
	// (commit requires doneAt <= cycle), so "some in-flight miss is
	// outstanding" is exactly lastMissDoneAt > cycle — the per-cycle ROB
	// scan the instrumentation used to do, in one comparison.
	lastMissDoneAt int64
}

// New builds a core over the given data-memory hierarchy.
func New(p Params, d memsys.System) (*Core, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	robSlots, ifqSlots := 64, 1
	for robSlots < p.ROBSize {
		robSlots *= 2
	}
	for ifqSlots < p.IFQSize {
		ifqSlots *= 2
	}
	c := &Core{
		p:       p,
		d:       d,
		pred:    newBimod(p.BranchPredBits),
		ic:      newICache(p.ICacheLines, p.ICacheLineSz),
		fuUnits: [numFU]int{p.IntALU, p.IntMult, p.FPALU, p.FPMult, p.MemPorts},

		rob:      make([]robEntry, robSlots),
		ifq:      make([]int64, ifqSlots),
		ready:    make([]uint64, robSlots/64),
		sleeping: make([]uint64, robSlots/64),
		links:    make([]link, 0, 2*p.ROBSize),
		infl:     make([]int, 0, 2*p.ROBSize),
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

// cancelCheckEvery is the cadence, in scheduler iterations, of the
// cooperative cancellation poll in RunContext. Each iteration advances
// simulated time by at least one cycle, so a canceled context is observed
// within this many cycles of work; the poll itself is a single non-blocking
// channel receive, and an A/B run measured it inside the machine's
// run-to-run noise (EXPERIMENTS.md, "Resilience & operations").
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
// and returns timing statistics. Fetch and dispatch index the decoded
// trace's struct-of-arrays buffers directly: no interface call and no
// record copy per instruction.
//
// The pipeline state lives in preallocated rings and scratch slices, so
// the steady-state loop performs no heap allocation. Cycles in which no
// stage can make progress — every in-flight result is scheduled for a
// later cycle and the front end is stalled — are fast-forwarded to the
// next completion time instead of being stepped one by one; the skipped
// cycles are behaviourally identical no-ops, and their ready-queue/miss
// instrumentation is accumulated in closed form so the statistics match
// single-stepping exactly.
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

		// The ROB holds trace indices [headIdx, headIdx+robLen), the IFQ
		// [headIdx+robLen, dPos).
		headIdx int // instructions committed
		robLen  int
		dPos    int // next instruction to fetch
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
	robMask, ifqMask := len(rob)-1, len(ifq)-1
	robSize, ifqSize := c.p.ROBSize, c.p.IFQSize
	c.lastMissDoneAt = 0
	c.infl = c.infl[:0]
	c.links, c.freeLink = c.links[:0], -1
	clear(c.ready)
	clear(c.sleeping)
	c.nextWake = notIssued
	for b := range c.memLast {
		c.memLast[b] = -1
	}

	dOps, dDep1s, dDep2s, dTakens := d.Ops(), d.Dep1s(), d.Dep2s(), d.Takens()
	dAddrs, dPCs := d.Addrs(), d.PCs()
	c.addrs, c.values, c.pcs = dAddrs, d.Values(), dPCs
	dLen := d.Len()

	// Drain loop: run until the trace is exhausted and the ROB is empty.
	for !fetchDone || dPos > headIdx {
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
		for robLen > 0 && committed < c.p.CommitWidth && rob[headIdx&robMask].doneAt <= cycle {
			headIdx++
			robLen--
			committed++
		}
		res.Instructions += int64(committed)

		// --- Issue: select ready instructions, oldest first. ---
		// Only entries whose register producers have all issued are in
		// the ready set, once their operands arrive by the next cycle.
		// One whose ready time has come sits in the ready queue this
		// cycle, whether or not it wins an issue slot (the paper's Figure
		// 15 metric counts the queue at selection time), and a memory op
		// among them still waits for its ordering blockers. The walk
		// covers the bitset's words circularly from the ROB head's bit,
		// ending with that word's bits below it.
		if cycle >= c.nextWake {
			c.wake(cycle)
		}
		issued, readyCount := 0, 0
		var fuBusy [numFU]int
		robHead := headIdx & robMask
		hw, hb := robHead>>6, robHead&63
		for k, nw := 0, len(c.ready); k <= nw; k++ {
			wi := (hw + k) & (nw - 1)
			span := ^uint64(0)
			if k == 0 {
				span <<= hb
			} else if k == nw {
				span = 1<<hb - 1
			}
			for w := c.ready[wi] & span; w != 0; {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				e := &rob[wi<<6|b]
				if e.readyAt > cycle {
					continue
				}
				readyCount++
				if e.memWait > 0 || e.memReadyAt > cycle {
					continue // a memory op held by an older one to its word
				}
				u := fuClass[e.op]
				if issued >= c.p.IssueWidth || fuBusy[u] == c.fuUnits[u] {
					continue
				}
				fuBusy[u]++
				c.execute(e, cycle, &res)
				if e.op.IsMem() {
					lsqOcc--
				} else if e.op == isa.OpBranch {
					robBranchUnissued--
				}
				issued++
				// A result available this very cycle may have readied a
				// younger consumer in this word.
				w = c.ready[wi] & span &^ (1<<b<<1 - 1)
			}
		}

		// --- Dispatch: IFQ -> ROB/LSQ, linking each entry to the older
		// instructions it waits on. ---
		dispatched := 0
		for dispatched < c.p.IssueWidth && robLen < robSize && headIdx+robLen < dPos {
			i := headIdx + robLen
			op := dOps[i]
			if op.IsMem() && lsqOcc >= c.p.LSQSize {
				break
			}
			pos := i & robMask
			e := &rob[pos]
			e.idx = i
			e.doneAt = notIssued
			e.readyAt, e.memReadyAt = 0, 0
			e.fetchedAt = ifq[i&ifqMask]
			e.deps, e.memWait, e.regWait = -1, 0, 0
			e.op = op
			// A producer older than the ROB head has committed, hence
			// completed: it constrains nothing.
			if dep := int(dDep1s[i]); dep > 0 && i-dep >= headIdx {
				c.waitReg(e, pos, i-dep)
			}
			if dep := int(dDep2s[i]); dep > 0 && i-dep >= headIdx {
				c.waitReg(e, pos, i-dep)
			}
			if e.regWait == 0 {
				c.regReady(e, pos, cycle)
			}
			if op.IsMem() {
				// Memory order: wait for every older op to the same word
				// when either is a store. Walk the bucket's chain youngest
				// first; the youngest older store to the word already
				// waited for every older op that conflicts with it, so
				// waiting for it covers them and the walk ends there.
				wa := mach.WordAlign(dAddrs[i])
				b := memBucket(wa)
				st := op == isa.OpStore
				for p := c.memLast[b]; p >= headIdx; {
					o := &rob[p&robMask]
					if oSt := o.op == isa.OpStore; (st || oSt) && mach.WordAlign(dAddrs[p]) == wa {
						if o.doneAt == notIssued {
							c.link(p&robMask, pos, true)
							e.memWait++
						} else if o.doneAt > e.memReadyAt {
							e.memReadyAt = o.doneAt
						}
						if oSt {
							break
						}
					}
					p = o.prevMem
				}
				e.prevMem, c.memLast[b] = c.memLast[b], i
				lsqOcc++
			} else if op == isa.OpBranch {
				ifqBranches--
				robBranchUnissued++
			}
			robLen++
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
			for dPos-headIdx-robLen < ifqSize {
				if dPos >= dLen {
					fetchDone = true
					break
				}
				pc := dPCs[dPos]
				res.ICacheAccesses++
				if !c.ic.access(pc) {
					res.ICacheMisses++
					fetchStallUntil = cycle + int64(c.p.ICacheMissLat-c.p.ICacheHitLat)
				}
				ifq[dPos&ifqMask] = cycle
				fetched++
				if dOps[dPos] == isa.OpBranch {
					res.Branches++
					ifqBranches++
					taken := dTakens[dPos]
					if c.pred.predict(pc) != taken {
						res.Mispredicts++
						// Fetch resumes after the branch resolves;
						// resolution is detected at issue time below.
						fetchStallUntil = stallSentinel // blocked until resolve
					}
					c.pred.update(pc, taken)
				}
				dPos++
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
			for i := headIdx; i < headIdx+robLen; i++ {
				e := &rob[i&robMask]
				if e.op != isa.OpBranch {
					continue
				}
				// Every ROB branch is issued (robBranchUnissued == 0);
				// only its completion cycle can hold the stall.
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
			res.ReadyQueueInMiss += int64(readyCount)
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
			(!fetchDone || dPos > headIdx) {
			// Pending completions are exactly the valid in-flight records:
			// every issued op with remaining latency was pushed to infl
			// (one-cycle ops can never be pending once the pipeline is
			// idle), so the earliest event falls out of a compacting walk
			// without touching the rest of the ROB.
			c.infl = compactInflight(rob, c.infl, cycle)
			next := notIssued
			for _, i := range c.infl {
				next = min(next, rob[i&robMask].doneAt)
			}
			if !fetchDone && fetchStallUntil > cycle && fetchStallUntil != stallSentinel && fetchStallUntil < next {
				next = fetchStallUntil
			}
			if next == notIssued {
				// No pending completion and a permanently stalled front
				// end: the state can never change again.
				panic("cpu: simulation did not converge")
			}
			if skipped := next - cycle - 1; skipped > 0 {
				if missOutstanding {
					res.MissCycles += skipped
					res.ReadyQueueInMiss += int64(readyCount) * skipped
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

// waitReg makes e, at ROB slot pos, wait for its register producer at
// trace index p, which is in the ROB: a link while p is unissued, p's
// completion cycle once it has issued.
func (c *Core) waitReg(e *robEntry, pos, p int) {
	ps := p & (len(c.rob) - 1)
	if pd := c.rob[ps].doneAt; pd == notIssued {
		c.link(ps, pos, false)
		e.regWait++
	} else if pd > e.readyAt {
		e.readyAt = pd
	}
}

// regReady files the entry e at ROB slot pos, whose register producers
// have all issued, by its ready time: in the ready set if its operands
// arrive by the cycle after this one, else asleep until they do.
func (c *Core) regReady(e *robEntry, pos int, cycle int64) {
	if e.readyAt <= cycle+1 {
		c.ready[pos>>6] |= 1 << (pos & 63)
		return
	}
	c.sleeping[pos>>6] |= 1 << (pos & 63)
	c.nextWake = min(c.nextWake, e.readyAt)
}

// wake moves the sleepers whose operands have arrived by cycle into the
// ready set and recomputes nextWake from the rest.
func (c *Core) wake(cycle int64) {
	c.nextWake = notIssued
	for wi, w := range c.sleeping {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if t := c.rob[wi<<6|b].readyAt; t > cycle {
				c.nextWake = min(c.nextWake, t)
				continue
			}
			c.sleeping[wi] &^= 1 << b
			c.ready[wi] |= 1 << b
		}
	}
}

// link adds the entry at ROB slot pos to the consumer list of the entry
// at slot prod, as a register or a memory-order dependence.
func (c *Core) link(prod, pos int, mem bool) {
	l := c.freeLink
	if l >= 0 {
		c.freeLink = c.links[l].next
	} else {
		l = int32(len(c.links))
		c.links = append(c.links, link{})
	}
	p := &c.rob[prod]
	c.links[l] = link{next: p.deps, pos: int32(pos), mem: mem}
	p.deps = l
}

// execute issues e at cycle: it computes the completion time and wakes
// the entries linked to e.
func (c *Core) execute(e *robEntry, cycle int64, res *Result) {
	var lat int
	isMiss := false
	if e.op.IsMem() {
		if c.obs != nil {
			// The attribution profiler charges the hierarchy events of
			// this access to the instruction's PC (attr.go).
			c.obs.SetAccessPC(c.pcs[e.idx])
		}
	}
	switch e.op {
	case isa.OpLoad:
		v, l := c.read(c.addrs[e.idx])
		if v != c.values[e.idx] {
			res.ValueMismatches++
		}
		res.Loads++
		lat = l
		isMiss = l > c.p.MissThreshold
	case isa.OpStore:
		l := c.write(c.addrs[e.idx], c.values[e.idx])
		res.Stores++
		lat = l
		isMiss = l > c.p.MissThreshold
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
	e.doneAt = cycle + int64(lat)
	pos := e.idx & (len(c.rob) - 1)
	c.ready[pos>>6] &^= 1 << (pos & 63)
	if isMiss && e.doneAt > c.lastMissDoneAt {
		c.lastMissDoneAt = e.doneAt
	}
	// Wake the consumers. A memory-order blocker holds its consumers for
	// the rest of this cycle even if it completes in it.
	for l := e.deps; l >= 0; {
		k := &c.links[l]
		ce := &c.rob[k.pos]
		if k.mem {
			ce.memWait--
			ce.memReadyAt = max(ce.memReadyAt, e.doneAt, cycle+1)
		} else {
			ce.readyAt = max(ce.readyAt, e.doneAt)
			if ce.regWait--; ce.regWait == 0 {
				c.regReady(ce, int(k.pos), cycle)
			}
		}
		next := k.next
		k.next = c.freeLink
		c.freeLink = l
		l = next
	}
	e.deps = -1
	if e.doneAt > cycle+1 {
		// Multi-cycle op: record it as in flight so the idle fast-forward
		// finds pending completions without a ROB walk. One-cycle ops are
		// complete before it can care.
		if len(c.infl) == cap(c.infl) {
			c.infl = compactInflight(c.rob, c.infl, cycle)
		}
		c.infl = append(c.infl, e.idx)
	}
	if c.obs != nil && e.op.IsMem() {
		if e.op == isa.OpLoad {
			c.obs.ObserveLoadToUse(e.doneAt - e.fetchedAt)
		}
		if isMiss {
			c.obs.ObserveMissService(int64(lat))
		}
	}
}

// compactInflight drops in-flight records whose op has committed (its
// ROB slot holds another index) or completed. Called when the list is
// full before a push and on idle cycles: live records never exceed the
// ROB size and the list's capacity is twice that, so a push after
// compaction never reallocates.
func compactInflight(rob []robEntry, fl []int, cycle int64) []int {
	w := 0
	for _, i := range fl {
		e := &rob[i&(len(rob)-1)]
		if e.idx != i || e.doneAt <= cycle {
			continue
		}
		fl[w] = i
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
