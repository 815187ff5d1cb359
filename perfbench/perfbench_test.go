package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"

	"objinline"
	"objinline/internal/bench"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genInputs(7), genInputs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genInputs(7) differs between calls")
	}
	if reflect.DeepEqual(a, genInputs(8)) {
		t.Fatal("genInputs(8) equals genInputs(7): the seed is ignored")
	}
}

func TestShapeOracle(t *testing.T) {
	ctx := context.Background()
	for si, sh := range shapes {
		for _, n := range []int{1, 3, 17} {
			src, want := sh.gen(rand.New(rand.NewPCG(uint64(si), uint64(n))), n)
			for _, mode := range []objinline.Mode{objinline.Direct, objinline.Inline} {
				p, err := objinline.CompileContext(ctx, sh.name+".icc", src, objinline.Config{Mode: mode})
				if err != nil {
					t.Fatalf("%s n=%d %s: compile: %v\n%s", sh.name, n, mode, err, src)
				}
				if _, _, err := execute(ctx, p, fmt.Sprintf("%d\n", want)); err != nil {
					t.Errorf("%s n=%d %s: %v", sh.name, n, mode, err)
				}
			}
		}
	}
}

func TestSlope(t *testing.T) {
	x := []float64{1000, 2000, 4000}
	for _, k := range []float64{1, 1.2, 2} {
		y := make([]float64, len(x))
		for i := range x {
			y[i] = 3e-4 * math.Pow(x[i], k)
		}
		if got := slope(x, y); math.Abs(got-k) > 1e-9 {
			t.Errorf("slope of x^%g = %g", k, got)
		}
	}
	// Noise of a few percent moves a fit over a doubling and a
	// quadrupling by a few hundredths, not more.
	y := []float64{10 * 1.03, 40 * 0.97, 160 * 1.02}
	if got := slope(x, y); math.Abs(got-2) > 0.05 {
		t.Errorf("slope of noisy x^2 = %g", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// centre drops the fastest and slowest of a few samples.
	if got := centre([]float64{100, 2, 3, 4, 0}); got != 3 {
		t.Errorf("centre = %v, want 3", got)
	}
	if got := nominal(3, refNominalMs/2); got != 6 {
		t.Errorf("3ms on a host twice as fast = %vms on the nominal one, want 6ms", got)
	}
}

// TestServerPass sends two small paper programs through one traced
// server pass: every request must pass its oracle, and the hit ratio is
// the resubmissions' share.
func TestServerPass(t *testing.T) {
	var inputs []compileInput
	for _, name := range []string{"richards", "silo"} {
		src, want, err := paperSource(name, bench.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, compileInput{name: name, file: name + ".icc", src: src, mode: objinline.Inline, want: want})
	}
	var log strings.Builder
	tl := &tally{w: &log}
	ss := newServerSamples(len(inputs))
	serverPass("p0", inputs, []int{1, 0}, ss, newSpanLog(), tl)
	if tl.failed != 0 {
		t.Fatalf("%d of %d operations failed:\n%s", tl.failed, tl.attempted, log.String())
	}
	m := zeroLayerMetrics()
	serverMetrics(m, ss)
	if got, want := m["server.cache_hit_ratio"].Value, float64(serverHits)/float64(serverHits+1); got != want {
		t.Errorf("cache hit ratio %v, want %v", got, want)
	}
	if got := m["server.compiles"].Value; got != 2 {
		t.Errorf("server.compiles = %v, want 2", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this command
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v; perfbench runs %d workloads", names, len(workloads))
	}
	if !reflect.DeepEqual(spec.EndToEnd, toSpec(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nperfbench reports:\n%v", spec.EndToEnd, toSpec(endToEnd))
	}
	if !reflect.DeepEqual(spec.PerLayer, toSpec(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nperfbench reports:\n%v", spec.PerLayer, toSpec(perLayer))
	}
}

func toSpec(ms []struct{ name, unit string }) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i].Name, out[i].Unit = m.name, m.unit
	}
	return out
}
