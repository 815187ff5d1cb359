package main

import (
	"io"

	"objinline"
)

// runScaling is compile-scaling: every stress shape at its three sizes,
// in inline mode, in an order the seed shuffles. A quarter-size input of
// each shape is pinned in a session.
func runScaling(o options, w io.Writer) (result, error) {
	lw := &libWorkload{repeats: 3, edits: 10, passesPer30s: 9}
	lw.setup = func() error {
		lw.inputs, lw.sessions = nil, nil
		for _, g := range genInputs(o.seed) {
			lw.inputs = append(lw.inputs, compileInput{name: g.name(), group: g.Shape, file: g.name() + ".icc",
				src: g.Src, mode: objinline.Inline, want: g.Want})
		}
		for si := range shapes {
			g := genShape(o.seed, si, -1)
			lw.sessions = append(lw.sessions, compileInput{name: g.name(), group: g.Shape, file: g.name() + ".icc",
				src: g.Src, mode: objinline.Inline, want: g.Want})
		}
		return nil
	}
	return lw.run(o, w)
}
