package objinline_test

// Config.Fingerprint is a cache-key component (the oicd server's
// content-addressed result cache hashes it with the source), so its
// contract is load-bearing: equivalent configurations must encode
// identically, distinct ones must not, and the encoding must be stable
// run to run.

import (
	"strings"
	"testing"

	"objinline"
)

// TestFingerprintEquivalentConfigs pins the default-filling half of the
// contract: a knob left zero and the same knob set to its default value
// are the same configuration and must produce one fingerprint — otherwise
// the server would compile (and cache) the same work twice.
func TestFingerprintEquivalentConfigs(t *testing.T) {
	zero := objinline.Config{Mode: objinline.Inline}
	explicit := objinline.Config{
		Mode:      objinline.Inline,
		TagDepth:  3, // the documented default
		MaxPasses: 8, // the documented default
		Solver:    objinline.SolverWorklist,
	}
	if got, want := explicit.Fingerprint(), zero.Fingerprint(); got != want {
		t.Errorf("explicit defaults fingerprint differently from zero values:\n  zero:     %s\n  explicit: %s", want, got)
	}
}

// TestFingerprintExcludesEngine pins the other direction of the
// contract for the engine knob: Engine selects which tier executes the
// program, never what is compiled, so configurations differing only in
// Engine must share one fingerprint. If the engine leaked into the key,
// every native run would recompile (and re-cache) work the server
// already has under the VM key.
func TestFingerprintExcludesEngine(t *testing.T) {
	base := objinline.Config{Mode: objinline.Inline}
	for _, e := range []objinline.Engine{objinline.EngineDefault, objinline.EngineVM, objinline.EngineNative} {
		cfg := base
		cfg.Engine = e
		if got, want := cfg.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("engine %s changed the fingerprint:\n  base:   %s\n  engine: %s", e, want, got)
		}
	}
}

// TestFingerprintDistinguishesKnobs checks every knob that can change
// compilation output changes the fingerprint.
func TestFingerprintDistinguishesKnobs(t *testing.T) {
	base := objinline.Config{Mode: objinline.Inline}
	variants := map[string]objinline.Config{
		"mode":            {Mode: objinline.Baseline},
		"parallel_arrays": {Mode: objinline.Inline, ParallelArrays: true},
		"tag_depth":       {Mode: objinline.Inline, TagDepth: 5},
		"max_passes":      {Mode: objinline.Inline, MaxPasses: 2},
		"solver":          {Mode: objinline.Inline, Solver: objinline.SolverSweep},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, cfg := range variants {
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("configs %q and %q collide on fingerprint %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintIsStable pins the encoding itself: versioned, and
// repeatable within a process. (Cross-run stability follows from the
// fixed field order — nothing in the encoding iterates a map.)
func TestFingerprintIsStable(t *testing.T) {
	cfg := objinline.Config{Mode: objinline.Inline, ParallelArrays: true, TagDepth: 4}
	fp := cfg.Fingerprint()
	if !strings.HasPrefix(fp, "objinline.Config/v1;") {
		t.Errorf("fingerprint %q lacks the version prefix", fp)
	}
	for i := 0; i < 100; i++ {
		if again := cfg.Fingerprint(); again != fp {
			t.Fatalf("fingerprint not repeatable: %q then %q", fp, again)
		}
	}
}

// TestSolverValidated pins the solver names the library accepts: the
// default, worklist and sweep compile (and open sessions); any other
// name, "parallel" included, is an error from Compile and NewSession
// alike, so it never reaches a Fingerprint.
func TestSolverValidated(t *testing.T) {
	const src = "func main() { print(6 * 7); }"
	for _, tc := range []struct {
		solver string
		ok     bool
	}{
		{"", true},
		{objinline.SolverWorklist, true},
		{objinline.SolverSweep, true},
		{"parallel", false},
		{"bogus", false},
	} {
		cfg := objinline.Config{Mode: objinline.Inline, Solver: tc.solver}
		if err := objinline.ValidateSolver(tc.solver); (err == nil) != tc.ok {
			t.Errorf("ValidateSolver(%q) = %v, want ok=%v", tc.solver, err, tc.ok)
		}
		_, err := objinline.Compile("x.icc", src, cfg)
		if (err == nil) != tc.ok {
			t.Errorf("Compile with solver %q: err = %v, want ok=%v", tc.solver, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "unknown solver") {
			t.Errorf("Compile with solver %q: err = %v, want an unknown-solver error", tc.solver, err)
		}
		if _, err := objinline.NewSession("x.icc", src, cfg); (err == nil) != tc.ok {
			t.Errorf("NewSession with solver %q: err = %v, want ok=%v", tc.solver, err, tc.ok)
		}
	}
}
