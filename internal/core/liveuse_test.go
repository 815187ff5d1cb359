package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/progen"
)

// liveUseAfterWalk is the instruction-by-instruction walk liveUseAfter
// replaced, kept as its oracle: a depth-first search from the instruction
// after handoff that marks instructions visited by ID, reports true on
// reaching use, and stops a path at any instruction defining x.
func liveUseAfterWalk(fn *ir.Func, handoff, use *ir.Instr, x ir.Reg) bool {
	var startB *ir.Block
	startIdx := -1
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if in == handoff {
				startB, startIdx = b, i
			}
		}
	}
	if startB == nil {
		return true
	}
	visited := make(map[int]bool)
	var walk func(b *ir.Block, idx int) bool
	walk = func(b *ir.Block, idx int) bool {
		for i := idx; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if visited[in.ID] {
				return false
			}
			visited[in.ID] = true
			if in == use {
				return true
			}
			if in.Dst == x {
				return false
			}
			if in.IsTerminator() {
				switch in.Op {
				case ir.OpJump:
					return walk(fn.Blocks[in.Target], 0)
				case ir.OpBranch:
					return walk(fn.Blocks[in.Target], 0) || walk(fn.Blocks[in.Else], 0)
				default:
					return false
				}
			}
		}
		return false
	}
	return walk(startB, startIdx+1)
}

// liveUseCorpus is the benchmark programs plus the differential fuzz
// corpus.
func liveUseCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := make(map[string]string)
	files, err := filepath.Glob("../bench/progs/*.icc")
	if err != nil || len(files) == 0 {
		t.Fatalf("benchmark programs not found: %v", err)
	}
	// Benchmark sources carry $PARAM size placeholders; any number will do.
	param := regexp.MustCompile(`\$[A-Z_]+`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpus[f] = param.ReplaceAllString(string(src), "2")
	}
	for seed := int64(0); seed < 200; seed++ {
		corpus[fmt.Sprintf("progen-%d", seed)] = progen.Generate(seed)
	}
	return corpus
}

// handoffValues lists the registers an instruction hands off, as the
// valuability predicates ask about them: a store's value (SafeStore), a
// call's arguments (ParamByValue) and a return's value (FreshReturn).
func handoffValues(in *ir.Instr) []ir.Reg {
	switch in.Op {
	case ir.OpSetField:
		return in.Args[1:2]
	case ir.OpArrSet:
		return in.Args[2:3]
	case ir.OpCall, ir.OpCallStatic, ir.OpCallMethod, ir.OpReturn:
		return in.Args
	}
	return nil
}

// TestLiveUseAfterMatchesWalk asks liveUseAfter every question
// safeHandoff can ask on the corpus — for every handoff of every
// function, every use of every register of the handed-off value's chain —
// and requires the oracle's answer each time.
func TestLiveUseAfterMatchesWalk(t *testing.T) {
	queries, live := 0, 0
	for name, src := range liveUseCorpus(t) {
		tree, err := parser.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := sem.Check(tree)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := lower.Lower(info)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v := newValuability(prog, analysis.Analyze(prog, analysis.Options{Tags: true}))
		for _, fn := range prog.Funcs {
			fn.Instrs(func(_ *ir.Block, h *ir.Instr) {
				for _, reg := range handoffValues(h) {
					chain := v.defChain(fn, reg)
					if chain == nil {
						continue
					}
					fn.Instrs(func(_ *ir.Block, use *ir.Instr) {
						if use == h || chain.chainDefs[use] {
							return
						}
						for _, x := range use.Args {
							if !chain.regs[x] {
								continue
							}
							queries++
							got, want := v.liveUseAfter(fn, h, use, x), liveUseAfterWalk(fn, h, use, x)
							if want {
								live++
							}
							if got != want {
								t.Errorf("%s: %s: liveUseAfter(handoff %s, use %s, r%d) = %v, walk says %v",
									name, fn.FullName(), h, use, x, got, want)
							}
						}
					})
				}
			})
		}
	}
	// Both answers must be exercised, or the comparison proves little.
	if live == 0 || live == queries {
		t.Errorf("%d queries, %d live: the corpus does not exercise both answers", queries, live)
	}
	t.Logf("%d queries, %d live", queries, live)
}
