package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"objinline"
	"objinline/internal/analysis"
	"objinline/internal/cachesim"
	"objinline/internal/core"
	"objinline/internal/funcinline"
	"objinline/internal/ir"
	"objinline/internal/lang/ast"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/peephole"
	"objinline/internal/vm"
)

// compileLayers are the compile layers a traced compile times, in the
// order pipeline.CompileContext calls them. verify is ir.Program.Verify,
// which the pipeline runs after funcinline and again after peephole.
var compileLayers = []string{"parser", "sem", "lower", "analysis", "core", "funcinline", "verify", "peephole"}

// programPhase names, for each compile layer, the phase the program's own
// CompileStats reports for the same work ("" when it reports none).
var programPhase = map[string]string{
	"parser": "parse", "sem": "check", "lower": "lower", "analysis": "analysis",
	"core": "optimize", "funcinline": "funcinline", "verify": "", "peephole": "peephole",
}

// layered is one compile done layer by layer: the time and, for analysis
// and core, the bytes allocated in each layer, the work counters each
// layer reports, and the finished program.
type layered struct {
	ns    map[string]int64
	alloc map[string]uint64

	lowerInstrs, funcinlineInstrs, peepholeInstrs int
	instrEvals, contourEvals, contours            int
	attempts, inlined, rejected, clones           int

	prog *ir.Program
}

// compileLayered repeats pipeline.CompileContext's sequence of calls for
// an optimizing mode, timing each call. The caller checks that the result
// equals the pipeline's own, so this copy cannot drift from it unnoticed.
func compileLayered(ctx context.Context, id, file, src string, mode objinline.Mode, sl *spanLog) (*layered, error) {
	l := &layered{ns: map[string]int64{}, alloc: map[string]uint64{}}
	start := time.Now()
	step := func(name string, allocs bool, f func() error) error {
		var m0, m1 runtime.MemStats
		if allocs {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if allocs {
			runtime.ReadMemStats(&m1)
			l.alloc[name] += m1.TotalAlloc - m0.TotalAlloc
		}
		l.ns[name] += t1.Sub(t0).Nanoseconds()
		sl.add(id, name, "compile", t0, t1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	inline := mode == objinline.Inline
	var (
		tree *ast.Program
		info *sem.Info
		prog *ir.Program
		res  *analysis.Result
		opt  *core.Result
	)
	steps := []struct {
		name   string
		allocs bool
		f      func() error
	}{
		{"parser", false, func() (err error) { tree, err = parser.Parse(file, src); return }},
		{"sem", false, func() (err error) { info, err = sem.Check(tree); return }},
		{"lower", false, func() (err error) { prog, err = lower.Lower(info); return }},
		{"analysis", true, func() (err error) {
			res, err = analysis.AnalyzeContext(ctx, prog, analysis.Options{Tags: inline})
			return
		}},
		{"core", true, func() (err error) {
			opt, err = core.Optimize(prog, res, core.Options{Inline: inline, ArrayLayout: core.LayoutObjectOrder})
			return
		}},
		{"funcinline", false, func() error { funcinline.Program(opt.Prog, funcinline.DefaultOptions); return nil }},
		{"verify", false, func() error { return opt.Prog.Verify() }},
		{"peephole", false, func() error { peephole.Program(opt.Prog); return nil }},
		{"verify", false, func() error { return opt.Prog.Verify() }},
	}
	for _, s := range steps {
		if err := step(s.name, s.allocs, s.f); err != nil {
			return nil, err
		}
		switch s.name {
		case "lower":
			l.lowerInstrs = prog.CodeSize()
		case "funcinline":
			l.funcinlineInstrs = opt.Prog.CodeSize()
		case "peephole":
			l.peepholeInstrs = opt.Prog.CodeSize()
		}
	}
	sl.add(id, "compile", "", start, time.Now())
	st := res.Stats()
	l.instrEvals = st.Work.InstrEvals
	l.contourEvals = st.Work.ContourEvals
	l.contours = st.MethodContours + st.ObjContours + st.ArrContours
	l.attempts = opt.Attempts
	l.clones = opt.CloneStats.ClonesAdded
	if inline && opt.Decision != nil {
		l.inlined = len(opt.Decision.Inlined)
		l.rejected = len(opt.Decision.Rejected)
	}
	l.prog = opt.Prog
	return l, nil
}

// runLayered runs prog on the VM as Program.Execute does by default (the
// simulated data cache on), timing the call.
func runLayered(ctx context.Context, id string, prog *ir.Program, sl *spanLog) (vm.Counters, string, int64, error) {
	var out bytes.Buffer
	cfg := cachesim.DefaultConfig
	m := vm.New(prog, vm.Options{Out: &out, Cache: &cfg})
	t0 := time.Now()
	c, err := m.RunContext(ctx)
	t1 := time.Now()
	sl.add(id, "vm", "", t0, t1)
	return c, out.String(), t1.Sub(t0).Nanoseconds(), err
}
