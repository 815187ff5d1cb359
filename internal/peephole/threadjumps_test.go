package peephole

import (
	"math/rand"
	"testing"

	"objinline/internal/ir"
)

// referenceResolve is the direct chain walk jumpResolver memoizes, kept as
// the oracle: follow lone jumps from i with a fresh seen-set, stopping at a
// block that is not a lone jump or at the first block revisited.
func referenceResolve(target []int, i int) int {
	seen := map[int]bool{}
	for !seen[i] {
		seen[i] = true
		if target[i] == i {
			return i
		}
		i = target[i]
	}
	return i
}

// randomCFG builds a function of n blocks: lone-jump blocks (so chains,
// cycles of empty jumps and self-loops occur), branch blocks and returns.
func randomCFG(r *rand.Rand, n int) *ir.Func {
	fn := &ir.Func{Name: "f", NumRegs: 1}
	for i := 0; i < n; i++ {
		b := &ir.Block{ID: i}
		switch k := r.Intn(10); {
		case k < 5:
			b.Instrs = []*ir.Instr{{Op: ir.OpJump, Dst: ir.NoReg, Target: r.Intn(n)}}
		case k < 6:
			b.Instrs = []*ir.Instr{{Op: ir.OpJump, Dst: ir.NoReg, Target: i}} // self-loop
		case k < 9:
			b.Instrs = []*ir.Instr{
				{Op: ir.OpConstBool, Dst: 0, Aux: 1},
				{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{0}, Target: r.Intn(n), Else: r.Intn(n)},
			}
		default:
			b.Instrs = []*ir.Instr{
				{Op: ir.OpConstNil, Dst: 0},
				{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
			}
		}
		fn.Blocks = append(fn.Blocks, b)
	}
	return fn
}

func TestThreadJumpsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		fn := randomCFG(r, 1+r.Intn(40))
		target := make([]int, len(fn.Blocks))
		for i, b := range fn.Blocks {
			target[i] = i
			if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJump {
				target[i] = b.Instrs[0].Target
			}
		}
		// The edges threadJumps should produce, from the oracle.
		type edge struct{ target, els int }
		want := make([]edge, len(fn.Blocks))
		for i, b := range fn.Blocks {
			last := b.Instrs[len(b.Instrs)-1]
			want[i] = edge{referenceResolve(target, last.Target), last.Else}
			if last.Op == ir.OpBranch {
				want[i].els = referenceResolve(target, last.Else)
			}
		}
		threadJumps(fn)
		for i, b := range fn.Blocks {
			last := b.Instrs[len(b.Instrs)-1]
			if last.Op != ir.OpJump && last.Op != ir.OpBranch {
				continue
			}
			got := edge{last.Target, last.Else}
			if got != want[i] {
				t.Fatalf("trial %d: block %d (%s) threads to %+v, reference %+v; lone-jump targets %v",
					trial, i, last.Op, got, want[i], target)
			}
		}
	}
}

// TestJumpResolverMatchesReference queries every block of random
// lone-jump graphs in a random order, so memoized chains are entered at
// every point of them, including from inside and outside cycles.
func TestJumpResolverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(30)
		target := make([]int, n)
		for i := range target {
			switch k := r.Intn(4); {
			case k == 0:
				target[i] = i // not a lone jump
			default:
				target[i] = r.Intn(n)
			}
		}
		jr := newJumpResolver(target)
		for _, i := range r.Perm(n) {
			for rep := 0; rep < 2; rep++ { // a second query is answered from the memo
				if got, want := jr.resolve(i), referenceResolve(target, i); got != want {
					t.Fatalf("trial %d: resolve(%d) = %d, reference %d; targets %v", trial, i, got, want, target)
				}
			}
		}
	}
}

// TestThreadJumpsLongChain threads a chain of n lone jumps, the shape
// nested if statements leave behind, from every block on it.
func TestThreadJumpsLongChain(t *testing.T) {
	const n = 5000
	fn := &ir.Func{Name: "f", NumRegs: 1}
	for i := 0; i < n; i++ {
		fn.Blocks = append(fn.Blocks, &ir.Block{ID: i, Instrs: []*ir.Instr{{Op: ir.OpJump, Dst: ir.NoReg, Target: i + 1}}})
	}
	fn.Blocks = append(fn.Blocks, &ir.Block{ID: n, Instrs: []*ir.Instr{
		{Op: ir.OpConstNil, Dst: 0},
		{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
	}})
	if !threadJumps(fn) {
		t.Fatal("threadJumps reported no change")
	}
	for i := 0; i < n; i++ {
		if got := fn.Blocks[i].Instrs[0].Target; got != n {
			t.Fatalf("block %d jumps to %d, want %d", i, got, n)
		}
	}
}
