package ast_test

import (
	"strings"
	"testing"

	"objinline/internal/lang/ast"
	"objinline/internal/lang/source"
)

func TestExprStringCoversAllNodes(t *testing.T) {
	pos := source.Pos{Line: 1, Col: 1}
	cases := []struct {
		e    ast.Expr
		want string
	}{
		{&ast.IntLit{Value: 42}, "42"},
		{&ast.FloatLit{Value: 1.5}, "1.5"},
		{&ast.FloatLit{Value: 2}, "2.0"},
		{&ast.StringLit{Value: "a\"b"}, `"a\"b"`},
		{&ast.BoolLit{Value: true}, "true"},
		{&ast.BoolLit{Value: false}, "false"},
		{&ast.NilLit{}, "nil"},
		{&ast.SelfExpr{}, "self"},
		{&ast.Ident{Name: "x"}, "x"},
		{&ast.BinaryExpr{Op: ast.OpAdd, X: &ast.Ident{Name: "a"}, Y: &ast.Ident{Name: "b"}}, "(a + b)"},
		{&ast.UnaryExpr{Op: ast.OpNeg, X: &ast.Ident{Name: "a"}}, "(-a)"},
		{&ast.UnaryExpr{Op: ast.OpNot, X: &ast.Ident{Name: "a"}}, "(!a)"},
		{&ast.CallExpr{Name: "f", Args: []ast.Expr{&ast.IntLit{Value: 1}}}, "f(1)"},
		{&ast.MethodCallExpr{Recv: &ast.Ident{Name: "o"}, Method: "m"}, "o.m()"},
		{&ast.FieldExpr{Recv: &ast.Ident{Name: "o"}, Name: "f"}, "o.f"},
		{&ast.IndexExpr{Arr: &ast.Ident{Name: "a"}, Index: &ast.IntLit{Value: 0}}, "a[0]"},
		{&ast.NewExpr{Class: "C", Args: []ast.Expr{&ast.IntLit{Value: 1}, &ast.IntLit{Value: 2}}}, "new C(1, 2)"},
		{&ast.NewArrayExpr{Len: &ast.IntLit{Value: 9}}, "new [9]"},
	}
	for _, c := range cases {
		if got := ast.ExprString(c.e); got != c.want {
			t.Errorf("ExprString(%T) = %q, want %q", c.e, got, c.want)
		}
	}
	_ = pos
}

func TestBinaryOpSpellings(t *testing.T) {
	want := map[ast.BinaryOp]string{
		ast.OpAdd: "+", ast.OpSub: "-", ast.OpMul: "*", ast.OpDiv: "/", ast.OpMod: "%",
		ast.OpEq: "==", ast.OpNe: "!=", ast.OpLt: "<", ast.OpLe: "<=",
		ast.OpGt: ">", ast.OpGe: ">=", ast.OpAnd: "&&", ast.OpOr: "||",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestPrintProgramStructure(t *testing.T) {
	p := &ast.Program{
		File:    "t.icc",
		Globals: []*ast.VarStmt{{Name: "g", Init: &ast.IntLit{Value: 1}}},
		Classes: []*ast.ClassDecl{{
			Name: "C", Super: "B",
			Fields:  []*ast.FieldDecl{{Name: "x"}},
			Methods: []*ast.FuncDecl{{Name: "m", Body: &ast.BlockStmt{}}},
		}},
		Funcs: []*ast.FuncDecl{{
			Name:   "main",
			Params: []*ast.Param{{Name: "unusedButPrinted"}},
			Body: &ast.BlockStmt{Stmts: []ast.Stmt{
				&ast.ReturnStmt{Value: &ast.IntLit{Value: 7}},
			}},
		}},
	}
	s := ast.Print(p)
	for _, frag := range []string{"var g = 1;", "class C : B {", "x;", "def m()", "func main(unusedButPrinted)", "return 7;"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Print missing %q:\n%s", frag, s)
		}
	}
}

func TestPosAccessors(t *testing.T) {
	pos := source.Pos{File: "f", Line: 3, Col: 4}
	nodes := []ast.Node{
		&ast.IntLit{LitPos: pos},
		&ast.Ident{NamePos: pos},
		&ast.NewExpr{NewPos: pos},
		&ast.VarStmt{VarPos: pos},
		&ast.IfStmt{IfPos: pos},
		&ast.WhileStmt{WhilePos: pos},
		&ast.ForStmt{ForPos: pos},
		&ast.ReturnStmt{RetPos: pos},
		&ast.BreakStmt{KwPos: pos},
		&ast.ContinueStmt{KwPos: pos},
		&ast.BlockStmt{LBrace: pos},
		&ast.ClassDecl{NamePos: pos},
		&ast.FuncDecl{NamePos: pos},
		&ast.Param{NamePos: pos},
		&ast.FieldDecl{NamePos: pos},
		// Nodes that start with a subexpression report the start recorded
		// in StartPos, not a walk down to their leftmost leaf.
		&ast.BinaryExpr{StartPos: pos, X: &ast.Ident{}, Y: &ast.Ident{}},
		&ast.MethodCallExpr{StartPos: pos, Recv: &ast.Ident{}},
		&ast.FieldExpr{StartPos: pos, Recv: &ast.Ident{}},
		&ast.IndexExpr{StartPos: pos, Arr: &ast.Ident{}, Index: &ast.IntLit{}},
	}
	for _, n := range nodes {
		if n.Pos() != pos {
			t.Errorf("%T.Pos() = %v", n, n.Pos())
		}
	}
}
