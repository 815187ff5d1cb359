package analysis

// The parallel solver: one pass's fixpoint solved by a bounded worker
// pool over the SCC-condensed contour call graph.
//
// # Scheduling
//
// The unit of work is one contour evaluation (the same unit the
// sequential solvers schedule). Contours needing evaluation sit on a
// priority queue ordered by (SCC rank, contour ID): the call graph —
// discovered incrementally, as call edges are bound — is periodically
// condensed into strongly connected components (scc.go), and contours in
// caller components rank ahead of their callees' components. Draining
// callers first means argument states flow down the condensation before
// each callee runs, so callee fixpoints are reached with few re-entries;
// symmetrically, by the time a caller re-reads a callee's return cell the
// callee has usually quiesced — its merged arg/ret cells are then a
// published, effectively immutable *method summary* the caller composes
// with directly (WorkStats.SummaryHits counts these; Result.Summaries
// materializes them). Ranks refresh every condenseInterval new edges;
// WorkStats.ParallelRounds counts the refreshes.
//
// Per-contour scheduling state is a tiny state machine (pstate:
// pQueued/pRunning/pRerun) guarded by the contour's pmu: a contour has at
// most one evaluator at any instant — so all single-evaluator state
// (calleeOrder, NewObjs, siteKeyMemo, out-edge Args cells) stays
// lock-free — and a dependency hit on a running contour degrades to a
// re-run rather than a concurrent evaluation. Quiescence is an active
// count (queued + running): when it reaches zero no contour is dirty and
// no evaluation is in flight, which is exactly the sequential solvers'
// termination condition.
//
// # Memory protocol
//
// Analysis cells (VarStates) are guarded by 256 striped mutexes hashed on
// the cell's address; every access goes through the helpers in solver.go.
// The structure tables (contour/edge maps and lists) take structMu; the
// tag intern table has its own RWMutex (tags.go). Lock order is
//
//	structMu → pmu → qMu,   stripe → qMu (trip only)
//
// and stripe locks never nest with each other except via lockPair's
// address ordering. Reader registration happens before the guarded read
// of a cell's contents (register-then-snapshot, both under the stripe),
// and writers collect a changed cell's readers under the stripe but mark
// them after releasing it — so either the reader's snapshot already
// contains a concurrent write, or the write's marking happens after the
// registration and re-dirties the reader. That is the chaotic-iteration
// invariant: no update is ever lost, stale reads only defer work.
//
// # Determinism
//
// Below the lattice's saturation points every merge is an exact set
// union — associative, commutative, idempotent — so chaotic iteration
// from the same seeds reaches the same least fixpoint under any schedule,
// and canonicalize() relabels contour/tag IDs from schedule-independent
// identities. Three events are order-sensitive, and each is *count*-
// triggered, hence deterministic in whether it occurs (cells and tables
// only grow toward the fixpoint): a tag set reaching maxTagSet (which
// members survive depends on arrival order), the contour table reaching
// Options.MaxContours (which split keys get coerced depends on creation
// order), and the evaluation budget (MaxRounds × contour count)
// exhausting. Each trips the pass: workers drain, the pass state is
// discarded, and the pass re-runs on the sequential worklist engine —
// whose behavior at those events is the defined one. Byte-identical
// output at any -jobs follows: a pass either saturates nothing (exact
// union lfp, equal to sequential) or trips (literally is sequential).

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"unsafe"

	"objinline/internal/ir"
)

// nStripes is the VarState lock-stripe count. Power of two; 256 stripes
// keep the collision probability of two hot cells low while the array
// (~100 bytes of mutexes) stays cache-resident.
const nStripes = 256

// condenseInterval is how many newly bound call edges accumulate before
// the call graph is re-condensed and scheduling ranks refresh.
const condenseInterval = 128

type parState struct {
	a *analyzer

	// structMu guards the contour and edge tables (mcs/ocs/acs/edges maps
	// and their lists) plus mcArr publication.
	structMu sync.RWMutex

	// stripes guard VarState cells, hashed by address (stripeOf).
	stripes [nStripes]sync.Mutex

	// Run queue. qMu guards queue, active, and the flags; qCond signals
	// pushes and broadcast-wakes on stop/quiescence.
	qMu        sync.Mutex
	qCond      *sync.Cond
	queue      mcHeap
	active     int // contours queued or running
	stop       bool
	tripped    bool
	cancelledF bool

	// mcArr maps contour ID → contour for lock-free access in pmark
	// (entries are published under structMu before the contour can gain
	// readers, and the scheduling handoff orders the reads). Fixed at
	// MaxContours: the handful of contours a tripping pass creates past
	// the cap are never marked through it (bounds check), and the pass's
	// state is discarded anyway.
	mcArr []*MethodContour
	nMC   atomic.Int32

	// evals totals contour evaluations across workers, enforcing the
	// MaxRounds budget.
	evals atomic.Int64

	// Call-edge log for SCC condensation: (caller ID, callee ID) pairs in
	// in-pass creation IDs. Never truncated — each condensation runs on
	// the full prefix logged so far.
	edgeMu     sync.Mutex
	edgeLog    [][2]int32
	edgesSince int
	condensing atomic.Bool
	epochs     atomic.Int32
}

// stripeOf returns the mutex guarding vs. The address is shifted past
// allocator alignment so neighboring cells in one contour's Regs slice
// land on different stripes.
func (p *parState) stripeOf(vs *VarState) *sync.Mutex {
	return &p.stripes[(uintptr(unsafe.Pointer(vs))>>6)%nStripes]
}

// lockPair locks two stripes in address order (deadlock-free for
// concurrent merges between arbitrary cell pairs).
func lockPair(a, b *sync.Mutex) {
	if a == b {
		a.Lock()
		return
	}
	if uintptr(unsafe.Pointer(a)) < uintptr(unsafe.Pointer(b)) {
		a.Lock()
		b.Lock()
	} else {
		b.Lock()
		a.Lock()
	}
}

func unlockPair(a, b *sync.Mutex) {
	if a == b {
		a.Unlock()
		return
	}
	a.Unlock()
	b.Unlock()
}

// mcHeap is the run queue: a min-heap on prio (SCC rank in the high
// bits, contour ID as the tiebreaker), captured at push time.
type mcHeap []*MethodContour

func (h mcHeap) Len() int           { return len(h) }
func (h mcHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h mcHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mcHeap) Push(x any)        { *h = append(*h, x.(*MethodContour)) }
func (h *mcHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// runParallelPass solves one pass on a worker pool. On a trip (see the
// package comment) it discards the pass and re-runs it sequentially; on
// cancellation it latches the context error and returns with the pass
// state abandoned (AnalyzeContext discards it).
func (a *analyzer) runParallelPass() {
	jobs := a.parJobs()
	p := &parState{a: a, mcArr: make([]*MethodContour, a.opts.MaxContours)}
	p.qCond = sync.NewCond(&p.qMu)
	a.par = p
	a.tt.mu = new(sync.RWMutex)

	seedW := newWorker(a, p)
	a.seed(seedW)

	workers := make([]*worker, jobs)
	var wg sync.WaitGroup
	for i := range workers {
		w := newWorker(a, p)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop()
		}()
	}
	wg.Wait()

	a.par = nil
	a.tt.mu = nil
	a.work.add(seedW.work)
	for _, w := range workers {
		a.work.add(w.work)
	}

	if p.cancelledF {
		a.ctxErr = a.ctx.Err()
		return
	}
	if p.tripped {
		// Exact fallback: discard the pass and re-run it on the
		// sequential worklist engine, which defines the behavior at the
		// order-sensitive event that tripped (including Converged=false
		// for budget exhaustion).
		a.resetPass()
		w := newWorker(a, nil)
		a.seed(w)
		a.runWorklist(w)
		a.work.add(w.work)
		return
	}

	// Final condensation over the complete call graph, for the stats.
	sccs, maxSCC := p.condense()
	// Latest pass wins: SCCs/MaxSCCSize describe the final call graph's
	// condensation, not an accumulation over refinement passes.
	a.work.SCCs = sccs
	a.work.MaxSCCSize = maxSCC
	a.work.ParallelRounds += int(p.epochs.Load())
}

// loop is one worker goroutine: pop, poll cancellation, evaluate, check
// the budget, finish. Runs until the pool stops or quiesces.
func (w *worker) loop() {
	p := w.p
	for {
		mc := p.pop()
		if mc == nil {
			return
		}
		if w.pollCancelled() {
			p.cancelPool()
			return
		}
		w.evalContourPar(mc)
		budget := int64(w.a.opts.MaxRounds) * int64(max(8, p.nMC.Load()))
		if p.evals.Add(1) > budget {
			p.trip()
		}
		p.finish(w, mc)
	}
}

// pop blocks until a contour is available (returning it in pRunning
// state), the pool is stopped, or the pool quiesces (nil).
func (p *parState) pop() *MethodContour {
	p.qMu.Lock()
	for {
		if p.stop {
			p.qMu.Unlock()
			return nil
		}
		if p.queue.Len() > 0 {
			mc := heap.Pop(&p.queue).(*MethodContour)
			p.qMu.Unlock()
			mc.pmu.Lock()
			mc.pstate.Store((mc.pstate.Load() &^ pQueued) | pRunning)
			mc.pmu.Unlock()
			return mc
		}
		if p.active == 0 {
			p.qMu.Unlock()
			return nil
		}
		p.qCond.Wait()
	}
}

// pushLocked enqueues mc; caller holds mc.pmu and has set pQueued. The
// pmu→qMu nesting makes "mark quiescent contour" atomic with respect to
// quiescence detection: active is incremented before pmu releases, so the
// pool cannot observe active==0 between a contour turning pQueued and its
// queue entry appearing.
func (p *parState) pushLocked(mc *MethodContour) {
	p.qMu.Lock()
	p.active++
	mc.prio = int64(mc.rank.Load())<<32 | int64(mc.ID)
	heap.Push(&p.queue, mc)
	p.qCond.Signal()
	p.qMu.Unlock()
}

// schedule activates a freshly created contour.
func (p *parState) schedule(mc *MethodContour) {
	mc.pmu.Lock()
	if mc.pstate.Load() == 0 {
		mc.pstate.Store(pQueued)
		p.pushLocked(mc)
	}
	mc.pmu.Unlock()
}

// finish completes an evaluation: re-queue if the contour was re-marked
// while running, else quiesce it (pstate 0 — its cells are now a
// published summary until some dependency re-dirties it).
func (p *parState) finish(w *worker, mc *MethodContour) {
	mc.pmu.Lock()
	if mc.pstate.Load()&pRerun != 0 {
		mc.pstate.Store(pQueued)
		// Requeue keeps its active slot: the contour stays counted from
		// first activation to quiescence.
		p.qMu.Lock()
		mc.prio = int64(mc.rank.Load())<<32 | int64(mc.ID)
		heap.Push(&p.queue, mc)
		p.qCond.Signal()
		p.qMu.Unlock()
		mc.pmu.Unlock()
		w.work.Enqueues++
		return
	}
	mc.pstate.Store(0)
	mc.pmu.Unlock()
	p.qMu.Lock()
	p.active--
	if p.active == 0 {
		p.qCond.Broadcast()
	}
	p.qMu.Unlock()
}

// trip aborts the pass for an exact sequential re-run. Safe to call while
// holding a stripe lock (no path acquires a stripe under qMu).
func (p *parState) trip() {
	p.qMu.Lock()
	p.tripped = true
	p.stop = true
	p.qCond.Broadcast()
	p.qMu.Unlock()
}

// cancelPool stops the pool on context cancellation.
func (p *parState) cancelPool() {
	p.qMu.Lock()
	p.cancelledF = true
	p.stop = true
	p.qCond.Broadcast()
	p.qMu.Unlock()
}

// getMCPar is getMC for parallel passes: double-checked lookup under
// structMu, with MaxContours overflow tripping to the sequential engine.
// The trip is *count*-triggered — the creation that fills the list to the
// cap trips, because that is the point where the sequential engines enter
// their coercion regime (every subsequent keyed getMC merges into the
// base contour). The contour count at fixpoint is schedule-independent
// (every schedule discovers the same demanded contour set), so whether
// the cap fills — and hence whether the pass trips — is deterministic and
// matches exactly the runs in which the sequential engines report
// Overflowed. Until the pool drains, creations continue uncoerced (the
// pass is discarded); mcArr accesses stay in bounds via explicit checks.
func (w *worker) getMCPar(fn *ir.Func, key string) *MethodContour {
	a, p := w.a, w.p
	id := mcKey{fn, key}
	p.structMu.RLock()
	mc := a.mcs[id]
	p.structMu.RUnlock()
	if mc != nil {
		return mc
	}
	p.structMu.Lock()
	if mc := a.mcs[id]; mc != nil {
		p.structMu.Unlock()
		return mc
	}
	mc = &MethodContour{ID: a.nextMC, Fn: fn, Key: key, Regs: make([]VarState, fn.NumRegs), ctxHash: mcHash(fn, key)}
	mc.dirty = make([]bool, numSlots*a.instrCount(fn))
	for i := 0; i < len(mc.dirty); i += numSlots {
		mc.dirty[i] = true
	}
	a.nextMC++
	a.mcs[id] = mc
	a.mcList = append(a.mcList, mc)
	if mc.ID < len(p.mcArr) {
		p.mcArr[mc.ID] = mc
	}
	p.nMC.Store(int32(len(a.mcList)))
	full := len(a.mcList) >= a.opts.MaxContours
	p.structMu.Unlock()
	if full {
		p.trip()
	}
	w.work.Enqueues++
	p.schedule(mc)
	return mc
}

// evalContourPar is evalContour for parallel passes: the dirty bitmap is
// snapshotted and cleared per instruction under the contour's scheduling
// lock, so concurrent marks either land before the snapshot (evaluated by
// this visit) or after (set pRerun via pmark, re-queueing at finish).
func (w *worker) evalContourPar(mc *MethodContour) {
	w.cur = mc
	w.work.ContourEvals++
	fn := mc.Fn
	pos := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			base := numSlots * pos
			mc.pmu.Lock()
			full := mc.dirty[base]
			args := mc.dirty[base+slotArgs]
			ret := mc.dirty[base+slotRet]
			mc.dirty[base] = false
			mc.dirty[base+slotArgs] = false
			mc.dirty[base+slotRet] = false
			mc.pmu.Unlock()
			if full || args || ret {
				w.curInstr = pos
				if full {
					w.evalInstr(mc, fn, in)
				} else {
					if args {
						w.evalArgs(mc, in)
					}
					if ret {
						w.evalRet(mc, in)
					}
				}
			}
			pos++
		}
	}
	w.curInstr = -1
	w.cur = nil
}

// pmark is the parallel reader re-mark (mark's counterpart): set the
// reader's dirty bit and ensure its contour will run again. Own-contour
// marks behind the evaluation cursor, and any mark on another worker's
// running contour, set pRerun; marks on a quiescent contour activate it.
func (w *worker) pmark(r uint64) {
	p := w.p
	idx := int(r >> 32)
	if idx >= len(p.mcArr) {
		return // created past a MaxContours trip; pass will be discarded
	}
	mc := p.mcArr[idx]
	bit := int(uint32(r)) - 1
	mc.pmu.Lock()
	mc.dirty[bit] = true
	if mc == w.cur {
		// Our own evaluation: positions ahead of the cursor are reached
		// by this very visit; positions behind need a re-run.
		if bit/numSlots <= w.curInstr {
			mc.pstate.Store(mc.pstate.Load() | pRerun)
		}
		mc.pmu.Unlock()
		return
	}
	st := mc.pstate.Load()
	switch {
	case st&pRunning != 0:
		mc.pstate.Store(st | pRerun)
		mc.pmu.Unlock()
	case st&pQueued != 0:
		mc.pmu.Unlock() // queued visit will see the bit
	default:
		mc.pstate.Store(pQueued)
		p.pushLocked(mc)
		mc.pmu.Unlock()
		w.work.Enqueues++
	}
}

// recordEdge logs a newly bound call edge and re-condenses the call graph
// every condenseInterval edges (one condensation at a time; extra
// triggers coalesce into the next).
func (p *parState) recordEdge(from, to int32) {
	p.edgeMu.Lock()
	p.edgeLog = append(p.edgeLog, [2]int32{from, to})
	p.edgesSince++
	due := p.edgesSince >= condenseInterval
	p.edgeMu.Unlock()
	if due && p.condensing.CompareAndSwap(false, true) {
		p.condense()
		p.condensing.Store(false)
	}
}

// condense runs Tarjan over the logged call graph and refreshes every
// contour's scheduling rank: callers (condensation sources) first.
// Returns the component count and largest component size.
func (p *parState) condense() (sccs, maxSCC int) {
	p.edgeMu.Lock()
	edges := make([][2]int32, len(p.edgeLog))
	copy(edges, p.edgeLog)
	p.edgesSince = 0
	p.edgeMu.Unlock()

	n := int(p.nMC.Load())
	if n > len(p.mcArr) {
		n = len(p.mcArr)
	}
	adj := make([][]int32, n)
	for _, e := range edges {
		if int(e[0]) < n && int(e[1]) < n {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	comp, ncomp := tarjanSCC(n, adj)
	sizes := make([]int, ncomp)
	for i := 0; i < n; i++ {
		// Tarjan numbers components reverse-topologically (callees
		// first); flip so callers rank lower and pop first.
		p.mcArr[i].rank.Store(int32(ncomp) - 1 - comp[i])
		sizes[comp[i]]++
	}
	for _, s := range sizes {
		if s > maxSCC {
			maxSCC = s
		}
	}
	p.epochs.Add(1)
	return ncomp, maxSCC
}
