package main

import (
	"embed"
	"fmt"
	"io"

	"objinline"
	"objinline/internal/bench"
)

// expected holds each paper program's output, one file per program and
// scale, written once from a direct-mode run and checked in. Every mode's
// output, direct included, is checked against these files.
//
//go:embed testdata/expected/*.out
var expected embed.FS

// paperPrograms are the five programs of the paper's evaluation.
var paperPrograms = []string{"oopack", "richards", "silo", "polyover-arr", "polyover-list"}

// paperSource returns a paper program's source and expected output at a
// scale.
func paperSource(name string, scale bench.Scale) (src, want string, err error) {
	p, err := bench.ByName(name)
	if err != nil {
		return "", "", err
	}
	if src, err = p.Source(bench.VariantAuto, scale); err != nil {
		return "", "", err
	}
	b, err := expected.ReadFile(fmt.Sprintf("testdata/expected/%s.%s.out", name, scale))
	if err != nil {
		return "", "", err
	}
	return src, string(b), nil
}

// runSuite is compile-suite: the five paper programs at medium scale, each
// in baseline and inline mode, in an order the seed shuffles. Sessions are
// pinned on richards and silo, the programs the incremental path was
// built for.
func runSuite(o options, w io.Writer) (result, error) {
	lw := &libWorkload{repeats: 1, edits: 4, passesPer30s: 40}
	lw.setup = func() error {
		lw.inputs, lw.sessions = nil, nil
		for _, name := range paperPrograms {
			src, want, err := paperSource(name, bench.ScaleMedium)
			if err != nil {
				return err
			}
			for _, mode := range []objinline.Mode{objinline.Baseline, objinline.Inline} {
				in := compileInput{name: name + "/" + mode.String(), group: mode.String(),
					file: name + ".icc", src: src, mode: mode, want: want}
				lw.inputs = append(lw.inputs, in)
				if mode == objinline.Inline && (name == "richards" || name == "silo") {
					lw.sessions = append(lw.sessions, in)
				}
			}
		}
		return nil
	}
	return lw.run(o, w)
}
