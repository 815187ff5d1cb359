package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// sameRegRep reports whether two repOfState answers are equal: the same
// carriers in the same order, or errors naming the same keys.
func sameRegRep(a *regRep, aerr *rewriteErr, b *regRep, berr *rewriteErr) bool {
	if (aerr == nil) != (berr == nil) {
		return false
	}
	if aerr != nil {
		if aerr.reason != berr.reason || len(aerr.keys) != len(berr.keys) {
			return false
		}
		for k := range aerr.keys {
			if !berr.keys[k] {
				return false
			}
		}
		return true
	}
	sameCarriers := func(x, y []carrier) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.raw == b.raw && sameCarriers(a.conts, b.conts) && sameCarriers(a.inters, b.inters)
}

func regRepString(r *regRep, err *rewriteErr) string {
	if err != nil {
		return fmt.Sprintf("error %q keys [%s]", err.reason, fieldNames(err.keys))
	}
	return fmt.Sprintf("raw=%v conts=%d inters=%d", r.raw, len(r.conts), len(r.inters))
}

// TestTagMemoMatchesFresh pins the transformer's tag memo, which is shared
// by every repOfState query of a materialization although resolveTag cuts
// content cycles at the tags on its path: an entry made below a cut could
// miss what the cut hid. Every query of optimizing the benchmark programs
// and the fuzz corpus (fully analyzed and starved of contours) is
// re-resolved with a fresh memo, and the answers must be equal.
func TestTagMemoMatchesFresh(t *testing.T) {
	queries := 0
	var name string
	defer func() { repOfStateCheck = nil }()
	repOfStateCheck = func(tr *transformer, st *analysis.VarState, rep *regRep, err *rewriteErr) {
		queries++
		shared := tr.tagMemo
		tr.tagMemo = make(map[*analysis.Tag]*tagRes)
		fresh, ferr := tr.resolveState(st)
		tr.tagMemo = shared
		if !sameRegRep(rep, err, fresh, ferr) {
			t.Errorf("%s: value tagged %s: shared memo gives %s, fresh memo %s",
				name, st.Tags.String(), regRepString(rep, err), regRepString(fresh, ferr))
		}
	}
	for _, leg := range []struct {
		name string
		opts analysis.Options
	}{
		{"full", analysis.Options{Tags: true}},
		{"starved", analysis.Options{Tags: true, MaxContours: 17}},
	} {
		for file, src := range liveUseCorpus(t) {
			name = leg.name + "/" + file
			prog, res := compileForCore(t, name, src, leg.opts)
			if _, err := Optimize(prog, res, Options{Inline: true}); err != nil && leg.name == "full" {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if queries == 0 {
		t.Fatal("no repOfState queries: the corpus does not exercise the memo")
	}
	t.Logf("%d repOfState queries", queries)
}

// sigInstrFmt is the fmt-based encoding sigInstr replaced, kept as its
// oracle.
func sigInstrFmt(b *strings.Builder, in *ir.Instr) {
	fmt.Fprintf(b, "%d %d", int(in.Op), in.Dst)
	for _, a := range in.Args {
		fmt.Fprintf(b, " %d", a)
	}
	if f := in.Field; f != nil {
		owner := "-"
		if f.Owner != nil {
			owner = f.Owner.Name
		}
		fmt.Fprintf(b, " f=%s.%s@%d~%v", owner, f.Name, f.Slot, f.Synthetic)
	}
	if in.Class != nil {
		fmt.Fprintf(b, " c=%s", in.Class.Name)
	}
	if in.Callee != nil {
		fmt.Fprintf(b, " t=%d", in.Callee.ID)
	}
	if in.Method != "" {
		fmt.Fprintf(b, " m=%s", in.Method)
	}
	fmt.Fprintf(b, " x=%d/%g/%q/%d/%d\n", in.Aux, in.F, in.S, in.Target, in.Else)
}

func checkSig(t *testing.T, in *ir.Instr) {
	t.Helper()
	var got, want strings.Builder
	sigInstr(&got, in)
	sigInstrFmt(&want, in)
	if got.String() != want.String() {
		t.Errorf("sigInstr(%s) = %q, fmt encoding %q", in, got.String(), want.String())
	}
}

// TestSigInstrMatchesFmt requires sigInstr's bytes to equal the fmt
// encoding for every instruction of the optimized benchmark programs and
// fuzz corpus, and for payloads the corpus does not reach: non-finite and
// extreme floats, escapes and invalid UTF-8 in strings, absent operands.
func TestSigInstrMatchesFmt(t *testing.T) {
	n := 0
	for name, src := range liveUseCorpus(t) {
		prog, res := compileForCore(t, name, src, analysis.Options{Tags: true})
		opt, err := Optimize(prog, res, Options{Inline: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range []*ir.Program{prog, opt.Prog} {
			for _, fn := range p.Funcs {
				fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
					n++
					checkSig(t, in)
				})
			}
		}
	}
	owner := &ir.Class{Name: "Leaf"}
	callee := &ir.Func{ID: 7, Name: "f"}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25e-300, 1e21, 1e20, 123456789, 0.1,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		checkSig(t, &ir.Instr{Op: ir.OpConstFloat, Dst: 3, F: f})
	}
	for _, s := range []string{"", "plain", "tab\tnew\nline", `quote" back\`, "héllo ☃", "\x00\xff\xfe", " "} {
		checkSig(t, &ir.Instr{Op: ir.OpConstStr, Dst: 1, S: s})
	}
	checkSig(t, &ir.Instr{Op: ir.OpGetField, Dst: ir.NoReg, Args: []ir.Reg{-1, 0, 12},
		Field: &ir.Field{Name: "f0", Slot: 3, Synthetic: true}, Aux: math.MinInt64, Target: -1, Else: 1 << 40})
	checkSig(t, &ir.Instr{Op: ir.OpSetField, Field: &ir.Field{Name: "x", Owner: owner},
		Class: owner, Callee: callee, Method: "m$1", Aux: math.MaxInt64})
	if n == 0 {
		t.Fatal("no instructions checked")
	}
	t.Logf("%d instructions", n)
}
