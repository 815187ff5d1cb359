package parser_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"objinline/internal/lang/ast"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/source"
	"objinline/internal/progen"
)

// leftmostPos is the reference definition of a node's start: the
// position of its leftmost leaf, found by walking down the left spine.
// The parser records it in StartPos when it builds the node.
func leftmostPos(e ast.Expr) source.Pos {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return leftmostPos(e.X)
	case *ast.MethodCallExpr:
		return leftmostPos(e.Recv)
	case *ast.FieldExpr:
		return leftmostPos(e.Recv)
	case *ast.IndexExpr:
		return leftmostPos(e.Arr)
	}
	return e.Pos()
}

// startPosCorpus is the differential fuzz corpus plus every Mini-ICC file
// in the repository's testdata, example and benchmark directories.
func startPosCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := make(map[string]string)
	for seed := int64(0); seed < 200; seed++ {
		corpus[fmt.Sprintf("progen-%d", seed)] = progen.Generate(seed)
	}
	// Benchmark sources carry $PARAM size placeholders; any number parses.
	param := regexp.MustCompile(`\$[A-Z_]+`)
	for _, glob := range []string{"../../../testdata/*.icc", "../../../examples/testdata/*.icc", "../../bench/progs/*.icc"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			corpus[f] = param.ReplaceAllString(string(src), "2")
		}
	}
	if len(corpus) < 205 {
		t.Fatalf("corpus has %d programs; the testdata globs found too few files", len(corpus))
	}
	return corpus
}

func TestStartPosIsLeftmostLeaf(t *testing.T) {
	for name, src := range startPosCorpus(t) {
		prog, err := parser.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checked := 0
		w := &exprWalker{visit: func(e ast.Expr) {
			switch e.(type) {
			case *ast.BinaryExpr, *ast.MethodCallExpr, *ast.FieldExpr, *ast.IndexExpr:
				checked++
				if got, want := e.Pos(), leftmostPos(e); got != want {
					t.Errorf("%s: %T %s starts at %v, its leftmost leaf at %v", name, e, ast.ExprString(e), got, want)
				}
			}
		}}
		w.program(prog)
		if checked == 0 {
			t.Errorf("%s: no binary, field, index or method-call node found", name)
		}
	}
}

// exprWalker calls visit on every expression of a program.
type exprWalker struct{ visit func(ast.Expr) }

func (w *exprWalker) program(p *ast.Program) {
	for _, g := range p.Globals {
		w.stmt(g)
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			w.stmt(m.Body)
		}
	}
	for _, f := range p.Funcs {
		w.stmt(f.Body)
	}
}

func (w *exprWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, x := range s.Stmts {
			w.stmt(x)
		}
	case *ast.VarStmt:
		w.expr(s.Init)
	case *ast.AssignStmt:
		w.expr(s.Target)
		w.expr(s.Value)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.IfStmt:
		w.expr(s.Cond)
		w.stmt(s.Then)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.WhileStmt:
		w.expr(s.Cond)
		w.stmt(s.Body)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmt(s.Body)
	case *ast.ReturnStmt:
		w.expr(s.Value)
	}
}

func (w *exprWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	w.visit(e)
	switch e := e.(type) {
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.CallExpr:
		w.exprs(e.Args)
	case *ast.MethodCallExpr:
		w.expr(e.Recv)
		w.exprs(e.Args)
	case *ast.FieldExpr:
		w.expr(e.Recv)
	case *ast.IndexExpr:
		w.expr(e.Arr)
		w.expr(e.Index)
	case *ast.NewExpr:
		w.exprs(e.Args)
	case *ast.NewArrayExpr:
		w.expr(e.Len)
	}
}

func (w *exprWalker) exprs(es []ast.Expr) {
	for _, e := range es {
		w.expr(e)
	}
}
