package pipeline_test

import (
	"math/rand"
	"testing"

	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/peephole"
	"objinline/internal/progen"
)

// FuzzCompile drives arbitrary source through the front end: parse, check
// and lower must reject bad input with an error and never panic, and a
// program that lowers must still verify after the peephole pass. The
// seeds are the differential corpus plus one instance of each scaling
// stress shape; plain `go test` runs just those, and
//
//	go test ./internal/pipeline -run '^$' -fuzz FuzzCompile
//
// explores from them.
func FuzzCompile(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(progen.Generate(seed))
	}
	for _, sh := range scalingShapes {
		f.Add(sh.gen(rand.New(rand.NewSource(1)), 50))
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := parser.Parse("fuzz.icc", src)
		if err != nil {
			return
		}
		info, err := sem.Check(tree)
		if err != nil {
			return
		}
		prog, err := lower.Lower(info)
		if err != nil {
			return
		}
		if err := prog.Verify(); err != nil {
			t.Fatalf("lowered program does not verify: %v", err)
		}
		peephole.Program(prog)
		if err := prog.Verify(); err != nil {
			t.Fatalf("peephole broke the program: %v\n%s", err, prog)
		}
	})
}
