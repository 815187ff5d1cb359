package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"objinline"
)

// compileInput is one input of a library workload: a source compiled in
// one mode, and the output its run must print. Inputs of one group differ
// only in size; compile_exponent is fitted per group.
type compileInput struct {
	name  string
	group string
	file  string
	src   string
	mode  objinline.Mode
	want  string
}

// inputSamples are one input's measurements across the passes of a run.
type inputSamples struct {
	compileMs []float64
	runMs     []float64
	cycles    int64
	codeSize  int

	// Traced runs only.
	tracedMs   []float64
	layerMs    map[string][]float64
	layerAlloc map[string][]float64
	phaseMs    map[string][]float64
	last       *layered
	vm         vmCounts
}

type vmCounts struct{ instructions, cycles, cacheMisses, allocations uint64 }

func newSamples(n int) []*inputSamples {
	out := make([]*inputSamples, n)
	for i := range out {
		out[i] = &inputSamples{layerMs: map[string][]float64{}, layerAlloc: map[string][]float64{}, phaseMs: map[string][]float64{}}
	}
	return out
}

// compileTimed compiles in through the public library, returning the
// wall time in milliseconds and the bytes the compile allocated.
//
// Every timed library call starts from a collected heap (settle), so that it pays
// for its own garbage and not for the garbage of whatever the seeded
// order ran before it.
func compileTimed(ctx context.Context, in compileInput) (*objinline.Program, float64, uint64, error) {
	settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	p, err := objinline.CompileContext(ctx, in.file, in.src, objinline.Config{Mode: in.mode})
	ms := msSince(t0)
	runtime.ReadMemStats(&m1)
	return p, ms, m1.TotalAlloc - m0.TotalAlloc, err
}

// execute runs p on the VM and checks its output against want.
func execute(ctx context.Context, p *objinline.Program, want string) (float64, int64, error) {
	var out bytes.Buffer
	settle()
	t0 := time.Now()
	res, err := p.Execute(ctx, objinline.RunOptions{Output: &out})
	ms := msSince(t0)
	if err != nil {
		return 0, 0, err
	}
	if got := out.String(); got != want {
		return 0, 0, fmt.Errorf("output differs from expected: got %q, want %q", clip(got), clip(want))
	}
	return ms, res.Metrics.Cycles, nil
}

// tracedPass compiles in three ways — untraced, layer by layer from here,
// and with the program's own phase tracing — and checks that the layered
// compile ends in the same IR as the untraced one. It then runs the
// layered program on the VM and checks its output.
func tracedPass(ctx context.Context, id string, in compileInput, s *inputSamples, sl *spanLog, t *tally) {
	p, ms, _, err := compileTimed(ctx, in)
	if err != nil {
		t.fail("%s: compile: %v", in.name, err)
		return
	}
	s.compileMs = append(s.compileMs, ms)
	settle()
	t0 := time.Now()
	l, err := compileLayered(ctx, id, in.file, in.src, in.mode, sl)
	s.tracedMs = append(s.tracedMs, msSince(t0))
	if err != nil {
		t.fail("%s: layered compile: %v", in.name, err)
		return
	}
	if l.prog.String() != p.IR() {
		t.fail("%s: layer-by-layer IR differs from Program.IR()", in.name)
		return
	}
	t.ok()
	for name, ns := range l.ns {
		s.layerMs[name] = append(s.layerMs[name], float64(ns)/1e6)
	}
	for name, b := range l.alloc {
		s.layerAlloc[name] = append(s.layerAlloc[name], float64(b))
	}
	s.last = l
	settle()
	if pt, err := objinline.CompileContext(ctx, in.file, in.src, objinline.Config{Mode: in.mode}, objinline.WithTracing()); err == nil {
		for _, ev := range pt.CompileStats().Phases {
			s.phaseMs[string(ev.Phase)] = append(s.phaseMs[string(ev.Phase)], float64(ev.Nanos)/1e6)
		}
	}
	settle()
	c, out, ns, err := runLayered(ctx, id, l.prog, sl)
	switch {
	case err != nil:
		t.fail("%s: run: %v", in.name, err)
	case out != in.want:
		t.fail("%s: output differs from expected: got %q, want %q", in.name, clip(out), clip(in.want))
	default:
		t.ok()
		s.runMs = append(s.runMs, float64(ns)/1e6)
		s.vm = vmCounts{c.Instructions, uint64(c.Cycles), c.CacheMisses, c.ObjectsAllocated + c.ArraysAllocated}
	}
}

// layerMetrics turns the samples of a traced run into the per-layer
// metrics: each time is the sum over inputs of the input's centre, each
// count the sum over inputs.
func layerMetrics(w io.Writer, inputs []compileInput, samples []*inputSamples) map[string]metric {
	m := zeroLayerMetrics()
	var bytesIn, wall, traced, layersSum float64
	var inlined, rejected int
	var vmMs float64
	var vmc vmCounts
	fmt.Fprintf(w, "%-20s %9s %9s | per layer: benchmark ms / program's CompileStats ms\n", "input", "wall ms", "traced ms")
	for i, in := range inputs {
		s := samples[i]
		if s.last == nil {
			continue
		}
		bytesIn += float64(len(in.src))
		wall += centre(s.compileMs)
		traced += centre(s.tracedMs)
		var row strings.Builder
		for _, name := range compileLayers {
			b := centre(s.layerMs[name])
			layersSum += b
			m[name+".ms"] = metric{m[name+".ms"].Value + b, "ms"}
			fmt.Fprintf(&row, " %s %.2f", name, b)
			if ph := programPhase[name]; ph != "" {
				p := centre(s.phaseMs[ph])
				fmt.Fprintf(&row, "/%.2f", p)
				if d := b - p; (d > 1 || d < -1) && (b > 2*p || p > 2*b) {
					row.WriteString("(DISAGREE)")
				}
			}
		}
		fmt.Fprintf(w, "%-20s %9.2f %9.2f |%s\n", in.name, centre(s.compileMs), centre(s.tracedMs), row.String())
		for _, name := range []string{"analysis", "core"} {
			m[name+".alloc_mb"] = metric{m[name+".alloc_mb"].Value + centre(s.layerAlloc[name])/1e6, "MB"}
		}
		l := s.last
		add(m, "lower.instrs", float64(l.lowerInstrs))
		add(m, "funcinline.instrs", float64(l.funcinlineInstrs))
		add(m, "peephole.instrs", float64(l.peepholeInstrs))
		add(m, "analysis.instr_evals", float64(l.instrEvals))
		add(m, "analysis.contour_evals", float64(l.contourEvals))
		add(m, "analysis.contours", float64(l.contours))
		add(m, "core.attempts", float64(l.attempts))
		add(m, "core.inlined", float64(l.inlined))
		add(m, "core.clones", float64(l.clones))
		inlined += l.inlined
		rejected += l.rejected
		if len(s.runMs) > 0 {
			vmMs += centre(s.runMs)
			vmc.instructions += s.vm.instructions
			vmc.cycles += s.vm.cycles
			vmc.cacheMisses += s.vm.cacheMisses
			vmc.allocations += s.vm.allocations
		}
	}
	if bytesIn > 0 {
		set(m, "parser.ns_per_byte", m["parser.ms"].Value*1e6/bytesIn)
		set(m, "lower.ns_per_byte", m["lower.ms"].Value*1e6/bytesIn)
	}
	if inlined+rejected > 0 {
		set(m, "core.inlined_ratio", float64(inlined)/float64(inlined+rejected))
	}
	set(m, "vm.ms", vmMs)
	set(m, "vm.instructions", float64(vmc.instructions))
	set(m, "vm.cycles", float64(vmc.cycles))
	set(m, "vm.cache_misses", float64(vmc.cacheMisses))
	set(m, "vm.allocations", float64(vmc.allocations))
	if vmc.instructions > 0 {
		set(m, "vm.ns_per_instr", vmMs*1e6/float64(vmc.instructions))
	}
	set(m, "compile.unaccounted_ms", wall-layersSum)
	if wall > 0 {
		set(m, "trace.overhead_ratio", traced/wall)
	}
	return m
}

// set replaces a metric's value, keeping the unit it was declared with.
func set(m map[string]metric, name string, v float64) {
	m[name] = metric{v, m[name].Unit}
}

func add(m map[string]metric, name string, v float64) { set(m, name, m[name].Value+v) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// clip shortens text for a failure message.
func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}
