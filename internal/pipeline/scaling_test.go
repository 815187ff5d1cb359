package pipeline_test

// Per-phase scaling: every compile phase must cost time linear in the
// size of its input. Each stress shape below is compiled at
// size n and 16n, and the ratio of the two per-phase times is held under
// 16^1.3 ≈ 37. A linear phase reads about 16 and a quadratic one about
// 256, so the bound separates the two with room for a shared host's busy
// spells (which slow a run by up to about 1.7×). Each phase's time is the
// minimum over five interleaved compiles, read from the same trace
// events CompileStats reports.
//
// Each n keeps the larger compile well under a second and at most about
// 100 MB of allocation, and makes the phase the shape stresses (lower on
// chain, access, nesting and straight; optimize on classes and wide) take
// from about 0.3 to 2 ms at n on a 2-core x86 host. A phase that takes
// less than the 1 ms floor at n is compared against the floor, which
// still fails a quadratic phase by a wide margin. Larger inputs would
// time more precisely but measure the memory hierarchy instead: once the
// IR outgrows the cache, a linear pass costs up to twice as much per
// instruction.
//
// The garbage collector is off while the test measures, and collects
// between compiles instead: a small input's heap stays under the
// collector's 4 MB starting goal while a large one's does not, so with it
// on the ratio would also price the large input's collections, which
// depend on the runtime's heap goal rather than on the compiler. A large
// compile allocates at most about 100 MB.
//
// The analysis phase is held to the same bound. On the wide shape each
// field access costs one map lookup (ObjContour.FieldState), not a scan
// of the class's field list, which would make it quadratic.

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"objinline/internal/pipeline"
	"objinline/internal/trace"
)

// scalingShape is one stress shape: gen writes a program of size n.
type scalingShape struct {
	name string
	n    int // the smaller size; the larger is 16n
	gen  func(r *rand.Rand, n int) string
}

var scalingShapes = []scalingShape{
	{"chain", 3000, genScaleChain},
	{"access", 1000, genScaleAccess},
	{"nesting", 300, genScaleNesting},
	{"straight", 600, genScaleStraight},
	{"classes", 60, genScaleClasses},
	{"wide", 100, genScaleWide},
}

// scalingPhases are the phases held to the linear bound.
var scalingPhases = []trace.Phase{trace.PhaseLower, trace.PhaseAnalysis, trace.PhaseOptimize, trace.PhasePeephole}

const (
	scaleFactor = 16
	scaleBound  = 37.0 // 16^1.3
	scaleReps   = 5
	// scaleFloor is the phase time below which a measurement at n is too
	// short to time reliably; the larger input is then held to 16× the
	// floor instead.
	scaleFloor = time.Millisecond
)

// genScaleChain is one long sum: 1 + 2 + … .
func genScaleChain(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("func main() {\n  var x = 0")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " + %d", r.Intn(9)+1)
		if i%16 == 15 {
			b.WriteString("\n   ")
		}
	}
	b.WriteString(";\n  print(x);\n}\n")
	return b.String()
}

// genScaleAccess is one expression of n field, index and method-call
// steps down a list.
func genScaleAccess(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(`class Node {
  v; next; kids;
  def init(v, next) { self.v = v; self.next = next; self.kids = new [1]; self.kids[0] = next; }
  def step() { return self.next; }
}
`)
	fmt.Fprintf(&b, "func main() {\n  var head = nil;\n  for (var i = 0; i < %d; i = i + 1) { head = new Node(i, head); }\n  print(head", n+2)
	steps := []string{".next", ".kids[0]", ".step()"}
	for i := 0; i < n; i++ {
		b.WriteString(steps[r.Intn(len(steps))])
		if i%16 == 15 {
			b.WriteString("\n    ")
		}
	}
	b.WriteString(".v);\n}\n")
	return b.String()
}

// genScaleNesting nests n if/else statements.
func genScaleNesting(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("func main() {\n  var x = 1;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if (x %% 97 != %d) { var y%d = x + %d; x = y%d %% 1000;\n", 96, i, r.Intn(100), i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "} else { x = x + %d; }\n", r.Intn(100))
	}
	b.WriteString("  print(x);\n}\n")
	return b.String()
}

// genScaleStraight is n statements, each defining a local from two
// earlier ones.
func genScaleStraight(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("func main() {\n  var v0 = 1;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  var v%d = (v%d * %d + v%d) %% 1000;\n", i, i-1, r.Intn(9)+2, r.Intn(i))
	}
	fmt.Fprintf(&b, "  print(v%d);\n}\n", n)
	return b.String()
}

// genScaleClasses declares n subclasses, each overriding a method over an
// object-valued field, and calls each once.
func genScaleClasses(r *rand.Rand, n int) string {
	var b, calls strings.Builder
	b.WriteString(`class P { x; def init(x) { self.x = x; } }
class B { p; def init(k) { self.p = new P(k); } def val() { return self.p.x; } }
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "class C%d : B { def val() { return self.p.x * %d; } }\n", i, r.Intn(9)+1)
		fmt.Fprintf(&calls, "  s = s + new C%d(%d).val();\n", i, r.Intn(100))
	}
	fmt.Fprintf(&b, "func main() {\n  var s = 0;\n%s  print(s);\n}\n", calls.String())
	return b.String()
}

// genScaleWide declares one class of n fields, every fourth holding an
// object, and sums them all.
func genScaleWide(r *rand.Rand, n int) string {
	var b, init, total strings.Builder
	b.WriteString("class P { x; def init(x) { self.x = x; } }\nclass W {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  f%d;\n", i)
		if i%4 == 0 {
			fmt.Fprintf(&init, "    self.f%d = new P(s + %d);\n", i, r.Intn(1000))
			fmt.Fprintf(&total, "    t = t + self.f%d.x;\n", i)
		} else {
			fmt.Fprintf(&init, "    self.f%d = s + %d;\n", i, r.Intn(1000))
			fmt.Fprintf(&total, "    t = t + self.f%d;\n", i)
		}
	}
	fmt.Fprintf(&b, "  def init(s) {\n%s  }\n  def total() {\n    var t = 0;\n%s    return t;\n  }\n}\n", init.String(), total.String())
	b.WriteString("func main() {\n  print(new W(7).total());\n}\n")
	return b.String()
}

// phaseTimes compiles src with inlining and returns each phase's time.
func phaseTimes(t *testing.T, src string) map[trace.Phase]time.Duration {
	t.Helper()
	runtime.GC()
	sink := &trace.Sink{}
	if _, err := pipeline.Compile("scale.icc", src, pipeline.Config{Mode: pipeline.ModeInline, Trace: sink}); err != nil {
		t.Fatal(err)
	}
	out := make(map[trace.Phase]time.Duration)
	for _, ev := range sink.Events() {
		out[ev.Phase] += time.Duration(ev.Nanos)
	}
	return out
}

func TestScalingPhasesLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation does not scale linearly; timings would measure it, not the compiler")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, sh := range scalingShapes {
		t.Run(sh.name, func(t *testing.T) {
			small := sh.gen(rand.New(rand.NewSource(1)), sh.n)
			large := sh.gen(rand.New(rand.NewSource(1)), scaleFactor*sh.n)
			minSmall := make(map[trace.Phase]time.Duration)
			minLarge := make(map[trace.Phase]time.Duration)
			keepMin := func(dst, src map[trace.Phase]time.Duration) {
				for p, d := range src {
					if old, ok := dst[p]; !ok || d < old {
						dst[p] = d
					}
				}
			}
			// Interleave the sizes so a busy spell of the host slows both.
			for i := 0; i < scaleReps; i++ {
				keepMin(minSmall, phaseTimes(t, small))
				keepMin(minLarge, phaseTimes(t, large))
			}
			for _, p := range scalingPhases {
				base := max(minSmall[p], scaleFloor)
				ratio := float64(minLarge[p]) / float64(base)
				t.Logf("%-9s n=%d: %v → %v (%.1f×)", p, sh.n, minSmall[p], minLarge[p], ratio)
				if ratio > scaleBound {
					t.Errorf("%s grows superlinearly on %s: %v at n=%d, %v at n=%d (%.1f× > %.0f×)",
						p, sh.name, minSmall[p], sh.n, minLarge[p], scaleFactor*sh.n, ratio, scaleBound)
				}
			}
		})
	}
}
