// Package core implements the paper's primary contribution: the object-
// inlining decision (use specialization §4.1 + assignment specialization
// §4.2) and the program transformation (§5) that restructures classes,
// redirects uses of inlined fields to the container's inlined state, and
// turns assignments into copies.
package core

import (
	"slices"
	"sort"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// valuability implements the paper's assignment-specialization analysis
// (§4.2): a store into an inlinable field becomes a copy, which is safe
// only when the stored value could have been passed *by value* — it was
// created locally (or itself received by value at every call site), it is
// never stored anywhere else, and it is never used after the handoff.
//
// The predicates mirror the paper's: NoStore / DontStore over uses,
// UsesBefore/UsesAfter over the intraprocedural CFG, PassByValue over a
// handoff use, and CallByValue over every call edge of a parameter.
type valuability struct {
	prog *ir.Program
	res  *analysis.Result

	// callees maps (fn, call-instr ID) to the possible target functions
	// (union over all contours).
	callees map[*ir.Func]map[int][]*ir.Func
	// callers lists, per function, the call sites that may invoke it.
	callers map[*ir.Func][]callSite

	index map[*ir.Func]*fnIndex // built lazily, one per function queried

	readOnly  map[paramKey]bool
	fresh     map[*ir.Func]int8 // 0 unknown, 1 yes, -1 no (FreshReturn)
	byValue   map[paramKey]int8
	byValMemo map[paramKey]bool
}

type paramKey struct {
	fn  *ir.Func
	reg ir.Reg // the parameter's register (self included)
}

type callSite struct {
	fn *ir.Func
	in *ir.Instr
}

func newValuability(prog *ir.Program, res *analysis.Result) *valuability {
	v := &valuability{
		prog:      prog,
		res:       res,
		callees:   make(map[*ir.Func]map[int][]*ir.Func),
		callers:   make(map[*ir.Func][]callSite),
		index:     make(map[*ir.Func]*fnIndex),
		readOnly:  make(map[paramKey]bool),
		fresh:     make(map[*ir.Func]int8),
		byValue:   make(map[paramKey]int8),
		byValMemo: make(map[paramKey]bool),
	}
	v.buildCallGraph()
	v.computeReadOnly()
	return v
}

// buildCallGraph flattens the contour-level call bindings to function
// level.
func (v *valuability) buildCallGraph() {
	type siteKey struct {
		fn *ir.Func
		id int
	}
	seen := make(map[siteKey]map[*ir.Func]bool)
	for _, mc := range v.res.Mcs {
		for id, callees := range mc.Callees {
			k := siteKey{mc.Fn, id}
			set := seen[k]
			if set == nil {
				set = make(map[*ir.Func]bool)
				seen[k] = set
			}
			for callee := range callees {
				set[callee.Fn] = true
			}
		}
	}
	instrOf := make(map[siteKey]*ir.Instr)
	for _, fn := range v.prog.Funcs {
		fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			if in.IsCall() {
				instrOf[siteKey{fn, in.ID}] = in
			}
		})
	}
	for k, set := range seen {
		targets := make([]*ir.Func, 0, len(set))
		for fn := range set {
			targets = append(targets, fn)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
		m := v.callees[k.fn]
		if m == nil {
			m = make(map[int][]*ir.Func)
			v.callees[k.fn] = m
		}
		m[k.id] = targets
		if in := instrOf[k]; in != nil {
			for _, t := range targets {
				v.callers[t] = append(v.callers[t], callSite{fn: k.fn, in: in})
			}
		}
	}
	// The seen map iterates in random order; sort each caller list so
	// everything derived from it — including the explain walker's choice
	// of which failing call site to show — is deterministic.
	for _, sites := range v.callers {
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].fn.ID != sites[j].fn.ID {
				return sites[i].fn.ID < sites[j].fn.ID
			}
			return sites[i].in.ID < sites[j].in.ID
		})
	}
}

// computeReadOnly computes, to a greatest fixpoint, whether each parameter
// is treated as read-only by its function: never stored into persistent
// state (the paper's DontStore), never returned, and only passed on to
// parameters that are themselves read-only.
func (v *valuability) computeReadOnly() {
	// Optimistically mark every parameter read-only, then invalidate.
	for _, fn := range v.prog.Funcs {
		for _, r := range paramRegs(fn) {
			v.readOnly[paramKey{fn, r}] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range v.prog.Funcs {
			for _, r := range paramRegs(fn) {
				k := paramKey{fn, r}
				if !v.readOnly[k] {
					continue
				}
				if !v.paramIsReadOnly(fn, r) {
					v.readOnly[k] = false
					changed = true
				}
			}
		}
	}
}

func paramRegs(fn *ir.Func) []ir.Reg {
	n := fn.NumParams
	if fn.Class != nil {
		n++
	}
	regs := make([]ir.Reg, n)
	for i := range regs {
		regs[i] = ir.Reg(i)
	}
	return regs
}

// paramIsReadOnly checks one parameter against the current assumptions.
// Copying the parameter into a local (OpMove) extends the check to the
// copy.
func (v *valuability) paramIsReadOnly(fn *ir.Func, reg ir.Reg) bool {
	aliases := v.aliasSet(fn, reg)
	ok := true
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if !ok {
			return
		}
		if !usesAny(in, aliases) {
			return
		}
		if v.useStores(fn, in, aliases) {
			ok = false
		}
	})
	return ok
}

// aliasSet returns reg plus every register that is only ever a Move-copy
// of it (transitively).
func (v *valuability) aliasSet(fn *ir.Func, reg ir.Reg) map[ir.Reg]bool {
	aliases := map[ir.Reg]bool{reg: true}
	for changed := true; changed; {
		changed = false
		fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			if in.Op == ir.OpMove && aliases[in.Args[0]] && !aliases[in.Dst] {
				// Only a pure alias if the destination has no other defs.
				if v.singleDef(fn, in.Dst, in) {
					aliases[in.Dst] = true
					changed = true
				}
			}
		})
	}
	return aliases
}

func (v *valuability) singleDef(fn *ir.Func, r ir.Reg, def *ir.Instr) bool {
	return len(v.indexOf(fn).defsOf(r)) == 1 && def.Dst == r
}

func usesAny(in *ir.Instr, regs map[ir.Reg]bool) bool {
	for _, a := range in.Args {
		if regs[a] {
			return true
		}
	}
	return false
}

// useStores reports whether use `in` may store one of the aliased
// registers into persistent state (or lets it escape in a way we cannot
// track): the negation of the paper's DontStore, extended through calls.
func (v *valuability) useStores(fn *ir.Func, in *ir.Instr, aliases map[ir.Reg]bool) bool {
	switch in.Op {
	case ir.OpMove:
		// Alias moves were folded into the set; a move to a multiply-
		// defined register is an untracked copy.
		return !aliases[in.Dst]
	case ir.OpSetField:
		return aliases[in.Args[1]] // storing the value (receiver use is fine)
	case ir.OpArrSet:
		return aliases[in.Args[2]]
	case ir.OpSetGlobal:
		return aliases[in.Args[0]]
	case ir.OpReturn:
		return len(in.Args) > 0 && aliases[in.Args[0]]
	case ir.OpCall, ir.OpCallStatic, ir.OpCallMethod:
		// Passing on is fine only into read-only parameters of every
		// possible callee.
		targets := v.callees[fn][in.ID]
		if len(targets) == 0 {
			return false // unreached call
		}
		for argIdx, a := range in.Args {
			if !aliases[a] {
				continue
			}
			for _, t := range targets {
				pr := calleeParamReg(in, t, argIdx)
				if pr == ir.NoReg || !v.readOnly[paramKey{t, pr}] {
					return true
				}
			}
		}
		return false
	case ir.OpBuiltin:
		// Builtins read their arguments (print formats, len measures);
		// none retains a reference.
		return false
	default:
		return false
	}
}

// calleeParamReg maps an argument index at a call instruction to the
// callee's parameter register.
func calleeParamReg(in *ir.Instr, callee *ir.Func, argIdx int) ir.Reg {
	switch in.Op {
	case ir.OpCall:
		if argIdx < callee.NumParams {
			return callee.ParamReg(argIdx)
		}
	case ir.OpCallStatic, ir.OpCallMethod:
		if callee.Class == nil {
			return ir.NoReg
		}
		if argIdx == 0 {
			return 0
		}
		if argIdx-1 < callee.NumParams {
			return callee.ParamReg(argIdx - 1)
		}
	}
	return ir.NoReg
}

// FreshReturn reports whether every value fn returns is a locally created
// object that has not been stored and is not otherwise retained — the
// factory-function extension noted in DESIGN.md.
func (v *valuability) FreshReturn(fn *ir.Func) bool {
	switch v.fresh[fn] {
	case 1:
		return true
	case -1:
		return false
	}
	v.fresh[fn] = -1 // pessimistic for recursion
	ok := true
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if !ok || in.Op != ir.OpReturn || len(in.Args) == 0 {
			return
		}
		if !v.safeHandoff(fn, in.Args[0], in, true) {
			ok = false
		}
	})
	if ok {
		v.fresh[fn] = 1
	}
	return ok
}

// SafeStore reports whether the value stored by `store` (a SetField or
// ArrSet instruction in fn) may be converted into a copy: the paper's
// PassByValue condition applied at the mutator's store site.
func (v *valuability) SafeStore(fn *ir.Func, store *ir.Instr) bool {
	var valReg ir.Reg
	switch store.Op {
	case ir.OpSetField:
		valReg = store.Args[1]
	case ir.OpArrSet:
		valReg = store.Args[2]
	default:
		return false
	}
	return v.safeHandoff(fn, valReg, store, false)
}

// safeHandoff checks the paper's PassByValue conditions for handing the
// value in register reg to `handoff` (a store, call, or return): every
// definition is by-value-producible, no other use stores it, and no use
// can execute after the handoff.
func (v *valuability) safeHandoff(fn *ir.Func, reg ir.Reg, handoff *ir.Instr, isReturn bool) bool {
	chain := v.defChain(fn, reg)
	if chain == nil {
		return false
	}
	// Origin check: every root definition must produce a fresh value or a
	// by-value parameter.
	for _, def := range chain.roots {
		switch def.Op {
		case ir.OpNewObject:
			// Locally created.
		case ir.OpCall:
			if !v.FreshReturn(def.Callee) {
				return false
			}
		case ir.OpConstNil:
			// A nil initializer on a declaration; harmless.
		default:
			return false
		}
	}
	for _, pr := range chain.params {
		if !v.ParamByValue(fn, pr) {
			return false
		}
	}
	// Use checks, over the uses of each register of the chain (an
	// instruction reading two of them is checked twice, to the same
	// answer).
	idx := v.indexOf(fn)
	for r := range chain.regs {
		for _, in := range idx.usesOf(r) {
			if in == handoff || chain.chainDefs[in] {
				continue // the handoff itself, or the chain's internal moves
			}
			if v.useStores(fn, in, chain.regs) {
				return false
			}
			// No use of the *same value* may run after the handoff (the
			// copy would expose stale state). A use is only dangerous when
			// it is reachable from the handoff without the used register
			// being redefined on the way — loop-carried re-creations are
			// new values.
			for _, a := range in.Args {
				if chain.regs[a] && v.liveUseAfter(fn, handoff, in, a) {
					return false
				}
			}
		}
	}
	_ = isReturn
	return true
}

// liveUseAfter reports whether instruction `use` (reading register x) can
// execute after `handoff` while x still holds the handed-off value — i.e.
// whether a path handoff→use exists that does not redefine x. The use is
// reached before its own definition of x counts (x = x + 1 reads x).
//
// The cost is bounded by the blocks the path search visits, not by the
// size of the function: positions and definitions come from fn's index, a
// use later in the handoff's own block is decided by one range query, and
// a block on the way that defines x ends that path without being scanned.
func (v *valuability) liveUseAfter(fn *ir.Func, handoff, use *ir.Instr, x ir.Reg) bool {
	idx := v.indexOf(fn)
	start, ok1 := idx.at(handoff)
	at, ok2 := idx.at(use)
	if !ok1 || !ok2 {
		return true // unknown position: stay conservative
	}
	if at.blk == start.blk && at.i > start.i {
		return !idx.definedIn(x, start.blk, start.i+1, at.i)
	}
	// The rest of the handoff's block, then block by block. Re-entering
	// the handoff's block at its top finds nothing new: what follows the
	// handoff was walked first.
	if idx.definedIn(x, start.blk, start.i+1, len(fn.Blocks[start.blk].Instrs)) {
		return false
	}
	if idx.epoch++; idx.epoch == 0 { // wrapped: forget every old mark
		clear(idx.seen)
		idx.epoch = 1
	}
	work := idx.work[:0]
	work = appendSuccs(work, fn.Blocks[start.blk])
	found := false
	for len(work) > 0 && !found {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if idx.seen[b] == idx.epoch {
			continue
		}
		idx.seen[b] = idx.epoch
		switch {
		case b == at.blk:
			found = !idx.definedIn(x, b, 0, at.i)
		case idx.definedIn(x, b, 0, len(fn.Blocks[b].Instrs)):
		default:
			work = appendSuccs(work, fn.Blocks[b])
		}
	}
	idx.work = work[:0]
	return found
}

// appendSuccs appends b's successor blocks to work.
func appendSuccs(work []int, b *ir.Block) []int {
	last := b.Instrs[len(b.Instrs)-1]
	switch last.Op {
	case ir.OpJump:
		work = append(work, last.Target)
	case ir.OpBranch:
		work = append(work, last.Target, last.Else)
	}
	return work
}

// fnIndex is what the valuability queries need to know about one
// function, computed once in a few linear passes over it: where each instruction is, and
// which instructions define and read each register, in function order.
// Functions are not mutated while a valuability lives (the optimizer
// materializes a fresh output program), so the index stays valid.
//
// Registers are dense, so the per-register lists share one flat array
// each, sliced by offsets: defs of r are defs[defStart[r]:defStart[r+1]].
type fnIndex struct {
	fn       *ir.Func
	pos      []instrPos // by instruction ID
	defStart []int
	defs     []*ir.Instr
	defAt    []instrPos // positions of defs, ascending per register
	useStart []int
	uses     []*ir.Instr // an instruction once per register it reads

	seen  []uint32 // liveUseAfter's visited blocks: seen[b] == epoch
	epoch uint32
	work  []int
}

type instrPos struct{ blk, i int }

func (v *valuability) indexOf(fn *ir.Func) *fnIndex {
	if idx, ok := v.index[fn]; ok {
		return idx
	}
	nregs, ninstrs := fn.NumRegs, 0
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		ninstrs = max(ninstrs, in.ID+1)
		nregs = max(nregs, int(in.Dst)+1)
		for _, a := range in.Args {
			nregs = max(nregs, int(a)+1)
		}
	})
	idx := &fnIndex{
		fn:       fn,
		pos:      make([]instrPos, ninstrs),
		defStart: make([]int, nregs+1),
		useStart: make([]int, nregs+1),
		seen:     make([]uint32, len(fn.Blocks)),
	}
	// Count, turn counts into offsets, then fill.
	readsOnce := func(in *ir.Instr, j int) bool { return !slices.Contains(in.Args[:j], in.Args[j]) }
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Dst != ir.NoReg {
			idx.defStart[in.Dst+1]++
		}
		for j, a := range in.Args {
			if readsOnce(in, j) {
				idx.useStart[a+1]++
			}
		}
	})
	for r := 0; r < nregs; r++ {
		idx.defStart[r+1] += idx.defStart[r]
		idx.useStart[r+1] += idx.useStart[r]
	}
	idx.defs = make([]*ir.Instr, idx.defStart[nregs])
	idx.defAt = make([]instrPos, idx.defStart[nregs])
	idx.uses = make([]*ir.Instr, idx.useStart[nregs])
	nextDef := slices.Clone(idx.defStart[:nregs])
	nextUse := slices.Clone(idx.useStart[:nregs])
	for bi, b := range fn.Blocks {
		for i, in := range b.Instrs {
			p := instrPos{bi, i}
			idx.pos[in.ID] = p
			if d := in.Dst; d != ir.NoReg {
				idx.defs[nextDef[d]], idx.defAt[nextDef[d]] = in, p
				nextDef[d]++
			}
			for j, a := range in.Args {
				if readsOnce(in, j) {
					idx.uses[nextUse[a]] = in
					nextUse[a]++
				}
			}
		}
	}
	v.index[fn] = idx
	return idx
}

// at returns the position of in, or false when in is not in the function.
func (idx *fnIndex) at(in *ir.Instr) (instrPos, bool) {
	if in.ID < 0 || in.ID >= len(idx.pos) {
		return instrPos{}, false
	}
	p := idx.pos[in.ID]
	if b := idx.fn.Blocks[p.blk]; p.i >= len(b.Instrs) || b.Instrs[p.i] != in {
		return instrPos{}, false
	}
	return p, true
}

func (idx *fnIndex) defsOf(r ir.Reg) []*ir.Instr {
	return idx.defs[idx.defStart[r]:idx.defStart[r+1]:idx.defStart[r+1]]
}
func (idx *fnIndex) usesOf(r ir.Reg) []*ir.Instr {
	return idx.uses[idx.useStart[r]:idx.useStart[r+1]:idx.useStart[r+1]]
}

// definedIn reports whether an instruction of block blk at an index in
// [lo, hi) defines x.
func (idx *fnIndex) definedIn(x ir.Reg, blk, lo, hi int) bool {
	if lo >= hi {
		return false
	}
	ps := idx.defAt[idx.defStart[x]:idx.defStart[x+1]]
	k := sort.Search(len(ps), func(k int) bool {
		return ps[k].blk > blk || (ps[k].blk == blk && ps[k].i >= lo)
	})
	return k < len(ps) && ps[k].blk == blk && ps[k].i < hi
}

// defChain gathers the registers holding the value (through Move copies),
// the root (non-move) definitions, and any parameter origins. It returns
// nil when the flow is too tangled to track.
type chainInfo struct {
	regs      map[ir.Reg]bool
	roots     []*ir.Instr
	params    []ir.Reg
	chainDefs map[*ir.Instr]bool
}

func (v *valuability) defChain(fn *ir.Func, reg ir.Reg) *chainInfo {
	c := &chainInfo{regs: map[ir.Reg]bool{reg: true}, chainDefs: make(map[*ir.Instr]bool)}
	work := []ir.Reg{reg}
	visited := map[ir.Reg]bool{reg: true}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		defs := v.defsOf(fn, r)
		if len(defs) == 0 {
			// No definition: a parameter register.
			if isParamReg(fn, r) {
				c.params = append(c.params, r)
				continue
			}
			return nil
		}
		for _, def := range defs {
			switch def.Op {
			case ir.OpMove:
				c.chainDefs[def] = true
				src := def.Args[0]
				if !visited[src] {
					visited[src] = true
					c.regs[src] = true
					work = append(work, src)
				}
			default:
				c.chainDefs[def] = true
				c.roots = append(c.roots, def)
			}
		}
		// Parameters can also be reassigned; if r is a param with defs it
		// still carries the incoming value.
		if isParamReg(fn, r) {
			c.params = append(c.params, r)
		}
	}
	return c
}

func isParamReg(fn *ir.Func, r ir.Reg) bool {
	n := fn.NumParams
	if fn.Class != nil {
		n++
	}
	return int(r) < n
}

func (v *valuability) defsOf(fn *ir.Func, r ir.Reg) []*ir.Instr {
	return v.indexOf(fn).defsOf(r)
}

// CollectRoots gathers the OpNewObject instructions (and FreshReturn
// factories' allocations) whose values feed the given safe store,
// following by-value parameters into every caller. The transformation
// stack-allocates these sites: after the copy the original is dead, so no
// heap allocation is needed — this is how the reproduction realizes the
// paper's "sub-objects are allocated with the container" savings (see
// DESIGN.md §2).
func (v *valuability) CollectRoots(fn *ir.Func, store *ir.Instr) []AllocSite {
	var valReg ir.Reg
	switch store.Op {
	case ir.OpSetField:
		valReg = store.Args[1]
	case ir.OpArrSet:
		valReg = store.Args[2]
	default:
		return nil
	}
	var out []AllocSite
	visited := make(map[paramKey]bool)
	var walk func(fn *ir.Func, reg ir.Reg)
	walk = func(fn *ir.Func, reg ir.Reg) {
		chain := v.defChain(fn, reg)
		if chain == nil {
			return
		}
		for _, def := range chain.roots {
			switch def.Op {
			case ir.OpNewObject:
				out = append(out, AllocSite{Fn: fn, Instr: def})
			case ir.OpCall:
				// Fresh factory: collect its returned allocations.
				callee := def.Callee
				callee.Instrs(func(_ *ir.Block, in *ir.Instr) {
					if in.Op == ir.OpReturn && len(in.Args) > 0 {
						walk(callee, in.Args[0])
					}
				})
			}
		}
		for _, pr := range chain.params {
			k := paramKey{fn, pr}
			if visited[k] {
				continue
			}
			visited[k] = true
			for _, site := range v.callers[fn] {
				idx := argIndexFor(site.in, fn, pr)
				if idx >= 0 && idx < len(site.in.Args) {
					walk(site.fn, site.in.Args[idx])
				}
			}
		}
	}
	walk(fn, valReg)
	return out
}

// AllocSite names one allocation instruction within a function.
type AllocSite struct {
	Fn    *ir.Func
	Instr *ir.Instr
}

// ParamByValue implements the paper's CallByValue: parameter reg of fn may
// be passed by value if at *every* call site the argument could be handed
// off safely. Recursion is resolved pessimistically.
func (v *valuability) ParamByValue(fn *ir.Func, reg ir.Reg) bool {
	k := paramKey{fn, reg}
	switch v.byValue[k] {
	case 1:
		return true
	case -1:
		return false
	}
	v.byValue[k] = -1 // pessimistic while in progress
	sites := v.callers[fn]
	if len(sites) == 0 {
		// Never called (dead code): vacuously safe.
		v.byValue[k] = 1
		return true
	}
	for _, site := range sites {
		argIdx := argIndexFor(site.in, fn, reg)
		if argIdx < 0 || argIdx >= len(site.in.Args) {
			v.byValue[k] = -1
			return false
		}
		if !v.safeHandoff(site.fn, site.in.Args[argIdx], site.in, false) {
			v.byValue[k] = -1
			return false
		}
	}
	v.byValue[k] = 1
	return true
}

// argIndexFor maps a callee parameter register back to the argument index
// at a call instruction.
func argIndexFor(in *ir.Instr, callee *ir.Func, reg ir.Reg) int {
	switch in.Op {
	case ir.OpCall:
		return int(reg)
	case ir.OpCallStatic, ir.OpCallMethod:
		return int(reg) // self is Args[0], params follow
	}
	return -1
}
