package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime/debug"
	"strings"
	"time"

	"objinline"
)

// libWorkload is a closed-loop workload through the public library: one
// caller compiles and runs every input in turn and edits pinned sessions,
// pass after pass.
type libWorkload struct {
	inputs   []compileInput
	sessions []compileInput // pinned with padSource(src, 0); their want is unaffected by the pad
	// repeats is how many times a pass runs each compiled input, and edits
	// how many times it edits each session: with few passes, one sample a
	// pass is too few for a steady centre.
	repeats, edits int
	// passesPer30s is how many passes a run makes per 30 seconds asked
	// for: somewhat less than the seed code fits on a 2-core box, so that
	// a run stays within its seconds when the host runs slow. A run does
	// a fixed amount of work rather than running until a clock expires, so
	// every run and every commit gathers the same number of samples.
	passesPer30s int
	// setup builds the inputs; it is timed as part of set-up.
	setup func() error
}

// setupRepeats is how many times set-up runs; the centre is reported.
const setupRepeats = 9

// padSource adds an unused local to main whose three-digit value k
// selects. Changing k is a payload edit: no declaration, shape or
// position changes, so a session absorbs it at its patch tier, and the
// program prints the same output.
func padSource(src string, k int) string {
	return strings.Replace(src, "func main() {", fmt.Sprintf("func main() {\n  var perfbenchPad = %d;", 100+k%900), 1)
}

// libRun holds one run's samples.
type libRun struct {
	samples   []*inputSamples
	passAlloc []float64
	patchMs   [][]float64 // per session
	patchTier []string
	refMs     []float64 // refLoop, before each set-up, each input and each pass's edits
}

// pending is a time measured in a pass, kept until the pass ends and the
// median of its refLoop timings is known.
type pending struct {
	dst *[]float64
	ms  float64
}

func (lw *libWorkload) run(o options, w io.Writer) (result, error) {
	ctx := context.Background()
	t := &tally{w: w}
	r := &libRun{}

	// The run goes with the collector off, and every timed call starts
	// from a heap collected just before it. A call then pays for the
	// garbage it makes (compile_alloc_mb) and not for the collections that
	// fall inside it, whose number and placement depend on the pacer's
	// history — the seeded order of the calls before — and made one
	// input's time swing by half from one seed to the next.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)

	// Set-up builds the inputs and pins the sessions; the last repeat's
	// are kept.
	var setups, setupRef []float64
	var sessions []*objinline.Session
	for i := 0; i < setupRepeats; i++ {
		setupRef = append(setupRef, refLoop())
		settle()
		t0 := time.Now()
		if err := lw.setup(); err != nil {
			return result{}, err
		}
		sessions = sessions[:0]
		for _, in := range lw.sessions {
			s, err := objinline.NewSessionContext(ctx, in.file, padSource(in.src, 0), objinline.Config{Mode: in.mode})
			if err != nil {
				return result{}, fmt.Errorf("session %s: %w", in.name, err)
			}
			sessions = append(sessions, s)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.refMs = append(r.refMs, setupRef...)

	order := rand.New(rand.NewPCG(uint64(o.seed), 0x5e55)).Perm(len(lw.inputs))
	r.samples = newSamples(len(lw.inputs))
	r.patchMs = make([][]float64, len(sessions))
	var sl *spanLog
	var ss *serverSamples
	if o.trace {
		sl = newSpanLog()
		ss = newServerSamples(len(lw.inputs))
	}
	passes := max(1, (o.seconds*lw.passesPer30s+15)/30)
	if o.trace {
		// A traced pass compiles every input three times and sends it to
		// the server as well, so a traced run makes a third of the passes.
		passes = max(2, passes/3)
	}
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		var alloc float64
		var passRef []float64
		var times []pending
		for _, i := range order {
			in, s := lw.inputs[i], r.samples[i]
			passRef = append(passRef, refLoop())
			if o.trace {
				tracedPass(ctx, fmt.Sprintf("p%d/%s", pass, in.name), in, s, sl, t)
				continue
			}
			p, ms, b, err := compileTimed(ctx, in)
			if err != nil {
				t.fail("%s: compile: %v", in.name, err)
				continue
			}
			t.ok()
			times = append(times, pending{&s.compileMs, ms})
			s.codeSize = p.CodeSize()
			alloc += float64(b)
			for k := 0; k < lw.repeats; k++ {
				runMs, cycles, err := execute(ctx, p, in.want)
				if err != nil {
					t.fail("%s: run: %v", in.name, err)
					break
				}
				t.ok()
				times = append(times, pending{&s.runMs, runMs})
				s.cycles = cycles
			}
		}
		r.passAlloc = append(r.passAlloc, alloc)
		passRef = append(passRef, refLoop())
		for j, s := range sessions {
			for k := 0; k < lw.edits; k++ {
				if ms, ok := lw.editSession(ctx, s, j, pass*lw.edits+k, k == lw.edits-1, r, t); ok {
					times = append(times, pending{&r.patchMs[j], ms})
				}
			}
		}
		// Each time of an untraced pass is scaled to the nominal host by the
		// median refLoop timing of its pass (see refLoop); per-layer times
		// are reported as measured.
		ref := refNominalMs
		if !o.trace {
			ref = median(passRef)
		}
		for _, p := range times {
			*p.dst = append(*p.dst, nominal(p.ms, ref))
		}
		r.refMs = append(r.refMs, passRef...)
		if o.trace {
			serverPass(fmt.Sprintf("p%d", pass), lw.inputs, order, ss, sl, t)
		}
	}
	fmt.Fprintf(w, "%d passes in %.1fs\n", passes, time.Since(start).Seconds())
	lw.checkDirect(ctx, t)

	res := result{Attempted: t.attempted, Failed: t.failed}
	if o.trace {
		res.Metrics = layerMetrics(w, lw.inputs, r.samples)
		serverMetrics(res.Metrics, ss)
		var all []float64
		for _, ms := range r.patchMs {
			all = append(all, ms...)
		}
		set(res.Metrics, "session.patch_ms", median(all))
		var patched float64
		for _, tier := range r.patchTier {
			if tier == objinline.TierPatch {
				patched++
			}
		}
		if len(r.patchTier) > 0 {
			set(res.Metrics, "session.tier_patch_ratio", patched/float64(len(r.patchTier)))
		}
		set(res.Metrics, "host.ref_ms", median(r.refMs))
		path, err := sl.write(o.out, o.workload)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "spans: %s\n", path)
	} else {
		v := lw.endToEnd(w, r)
		v["setup_s"] = nominal(centre(setups), median(setupRef))
		fmt.Fprintf(w, "times are on the nominal host: refLoop took %.2fms here (median), %.0fms there\n",
			median(r.refMs), refNominalMs)
		res.Metrics = endToEndMetrics(v)
	}
	res.Correct = t.failed == 0
	return res, nil
}

// editSession submits the n-th payload edit to session j and returns its
// time. When check is set it also runs the patched program and checks its
// output; the edits of one pass differ only in the value of an unused
// local, so checking one a pass suffices.
func (lw *libWorkload) editSession(ctx context.Context, s *objinline.Session, j, n int, check bool, r *libRun, t *tally) (float64, bool) {
	in := lw.sessions[j]
	settle()
	t0 := time.Now()
	p, st, err := s.PatchContext(ctx, padSource(in.src, n+1))
	ms := msSince(t0)
	if err != nil {
		t.fail("%s: patch: %v", in.name, err)
		return 0, false
	}
	r.patchTier = append(r.patchTier, st.Tier)
	if check {
		if _, _, err := execute(ctx, p, in.want); err != nil {
			t.fail("%s: patched run: %v", in.name, err)
			return 0, false
		}
	}
	t.ok()
	return ms, true
}

// checkDirect runs every distinct source once unoptimized (direct mode)
// and checks its output against the same expected output: the optimizing
// modes must not change what a program prints.
func (lw *libWorkload) checkDirect(ctx context.Context, t *tally) {
	seen := map[string]bool{}
	for _, in := range lw.inputs {
		if seen[in.src] {
			continue
		}
		seen[in.src] = true
		d := in
		d.mode = objinline.Direct
		p, err := objinline.CompileContext(ctx, d.file, d.src, objinline.Config{Mode: d.mode})
		if err == nil {
			_, _, err = execute(ctx, p, d.want)
		}
		if err != nil {
			t.fail("%s: direct mode: %v", in.name, err)
			continue
		}
		t.ok()
	}
}

// endToEnd computes the end-to-end metrics of an untraced run from its
// samples, already scaled to the nominal host.
func (lw *libWorkload) endToEnd(w io.Writer, r *libRun) map[string]float64 {
	var compileMs, runMs, cycles []float64
	var codeSize float64
	groups := map[string][2][]float64{}
	var groupOrder []string
	fmt.Fprintf(w, "%-20s %8s %10s %10s %12s %8s\n", "input", "bytes", "compile ms", "run ms", "cycles", "instrs")
	for i, in := range lw.inputs {
		s := r.samples[i]
		if len(s.compileMs) == 0 || len(s.runMs) == 0 {
			continue
		}
		c, rm := centre(s.compileMs), centre(s.runMs)
		fmt.Fprintf(w, "%-20s %8d %10.3f %10.3f %12d %8d\n", in.name, len(in.src), c, rm, s.cycles, s.codeSize)
		compileMs = append(compileMs, c)
		runMs = append(runMs, rm)
		cycles = append(cycles, float64(s.cycles))
		codeSize += float64(s.codeSize)
		g, ok := groups[in.group]
		if !ok {
			groupOrder = append(groupOrder, in.group)
		}
		g[0] = append(g[0], float64(len(in.src)))
		g[1] = append(g[1], c)
		groups[in.group] = g
	}
	exponent := 0.0
	for _, name := range groupOrder {
		g := groups[name]
		k := slope(g[0], g[1])
		fmt.Fprintf(w, "exponent %-12s %.3f\n", name, k)
		if name == groupOrder[0] || k > exponent {
			exponent = k
		}
	}
	var patchMs []float64
	for _, ms := range r.patchMs {
		patchMs = append(patchMs, centre(ms))
	}
	return map[string]float64{
		"compile_s_total":    sum(compileMs) / 1e3,
		"compile_ms_geomean": geomean(compileMs),
		"compile_exponent":   exponent,
		"compile_alloc_mb":   median(r.passAlloc) / 1e6,
		"code_size":          codeSize,
		"run_cycles_geomean": geomean(cycles),
		"vm_run_ms_geomean":  geomean(runMs),
		"patch_ms_p50":       median(patchMs),
	}
}
