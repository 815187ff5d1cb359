package lower_test

import (
	"fmt"
	"strings"
	"testing"

	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/vm"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("t.icc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	p, err := lower.Lower(info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func buildErr(t *testing.T, src, frag string) {
	t.Helper()
	prog, err := parser.Parse("t.icc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	_, err = lower.Lower(info)
	if err == nil {
		t.Fatalf("expected lowering error mentioning %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func countOps(fn *ir.Func, op ir.Op) int {
	n := 0
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

func TestLayoutsExtendSuperclass(t *testing.T) {
	p := build(t, `
class A { a1; a2; }
class B : A { b1; }
func main() { }
`)
	a := p.ClassNamed("A")
	b := p.ClassNamed("B")
	if a.NumSlots() != 2 || b.NumSlots() != 3 {
		t.Fatalf("slots: A=%d B=%d", a.NumSlots(), b.NumSlots())
	}
	// The superclass prefix is shared: same *Field pointers.
	for i := 0; i < 2; i++ {
		if b.Fields[i] != a.Fields[i] {
			t.Errorf("B slot %d is not A's field", i)
		}
	}
	if b.Fields[2].Name != "b1" || b.Fields[2].Owner != b {
		t.Errorf("B's own field: %v", b.Fields[2])
	}
}

func TestVerifiedOutput(t *testing.T) {
	p := build(t, `
class C { v; def init(v) { self.v = v; } def get() { return self.v; } }
func main() {
  var c = new C(1);
  if (c.get() > 0) { print("pos"); } else { print("neg"); }
  while (c.get() < 10) { c.v = c.v + 1; }
}
`)
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestShortCircuitLowersToBranches(t *testing.T) {
	p := build(t, `func main() { var a = true && false; var b = true || false; }`)
	main := p.Main
	if got := countOps(main, ir.OpBranch); got != 2 {
		t.Errorf("branches = %d, want 2 (one per short-circuit op)", got)
	}
	if got := countOps(main, ir.OpBin); got != 0 {
		t.Errorf("OpBin = %d; short-circuit ops must not become OpBin", got)
	}
}

func TestConstructorCallIsStatic(t *testing.T) {
	p := build(t, `
class C { v; def init(v) { self.v = v; } }
func main() { var c = new C(3); }
`)
	if got := countOps(p.Main, ir.OpCallStatic); got != 1 {
		t.Errorf("OpCallStatic = %d, want 1 (the constructor)", got)
	}
	if got := countOps(p.Main, ir.OpCallMethod); got != 0 {
		t.Errorf("OpCallMethod = %d, want 0", got)
	}
}

func TestMethodCallIsDynamic(t *testing.T) {
	p := build(t, `
class C { def m() { return 1; } }
func main() { var c = new C(); c.m(); }
`)
	if got := countOps(p.Main, ir.OpCallMethod); got != 1 {
		t.Errorf("OpCallMethod = %d, want 1", got)
	}
}

func TestFieldAccessesAreNameOnly(t *testing.T) {
	p := build(t, `
class C { v; def init() { self.v = 1; } }
func main() { var c = new C(); print(c.v); }
`)
	p.Main.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpGetField {
			if in.Field.Owner != nil || in.Field.Slot != -1 {
				t.Errorf("lowered field access should be name-only, got %v", in.Field)
			}
		}
	})
}

func TestGlobalInitFunction(t *testing.T) {
	p := build(t, `var g = 41; func main() { print(g + 1); }`)
	init := p.FuncNamed(lower.InitFuncName)
	if init == nil {
		t.Fatal("no $init function")
	}
	if got := countOps(init, ir.OpSetGlobal); got != 1 {
		t.Errorf("$init SetGlobal = %d", got)
	}
}

func TestNoInitWithoutInitializers(t *testing.T) {
	p := build(t, `var g; func main() { }`)
	if p.FuncNamed(lower.InitFuncName) != nil {
		t.Error("$init created for uninitialized globals")
	}
}

func TestLoweringErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`func main() { print(x); }`, "undeclared variable x"},
		{`func main() { x = 1; }`, "assignment to undeclared"},
		{`func main() { var x = 1; var x = 2; }`, "redeclared in this scope"},
		{`func main() { break; }`, "break outside loop"},
		{`func main() { continue; }`, "continue outside loop"},
		{`func f() { return self; } func main() { }`, "self outside a method"},
		{`func main() { nope(); }`, "unknown function nope"},
		{`func main() { var x = new Nope(); }`, "unknown class Nope"},
		{`class C { def init(a) { } } func main() { new C(); }`, "takes 1 arguments, got 0"},
		{`class C { } func main() { new C(1); }`, "no init method"},
		{`func f(a) { return a; } func main() { f(1, 2); }`, "takes 1 arguments, got 2"},
		{`func main() { sqrt(1, 2); }`, "wrong number of arguments"},
	}
	for _, c := range cases {
		buildErr(t, c.src, c.frag)
	}
}

func TestScopesShadowInBlocks(t *testing.T) {
	// Shadowing in a nested block is allowed; reuse after the block refers
	// to the outer variable.
	p := build(t, `
func main() {
  var x = 1;
  { var x = 2; print(x); }
  print(x);
}
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestForLoopScopesItsInit(t *testing.T) {
	p := build(t, `
func main() {
  for (var i = 0; i < 3; i = i + 1) { }
  for (var i = 0; i < 3; i = i + 1) { }
}
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitReturnAppended(t *testing.T) {
	p := build(t, `func f() { } func main() { f(); }`)
	f := p.FuncNamed("f")
	last := f.Blocks[len(f.Blocks)-1].Instrs
	if last[len(last)-1].Op != ir.OpReturn {
		t.Errorf("missing implicit return")
	}
}

func TestDeadCodeAfterReturnStillVerifies(t *testing.T) {
	p := build(t, `
func f() { return 1; return 2; }
func main() { f(); }
`)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTemporariesNotReused(t *testing.T) {
	// Distinct temporaries get distinct registers (flow-insensitive
	// analysis precision depends on this).
	p := build(t, `
class A { def m() { return 1; } }
class B { def m() { return 2; } }
func main() {
  var a = new A();
  var b = new B();
  print(a.m() + b.m());
}
`)
	seen := make(map[ir.Reg]int)
	p.Main.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpNewObject {
			seen[in.Dst]++
		}
	})
	for r, n := range seen {
		if n > 1 {
			t.Errorf("register r%d reused for %d allocations", r, n)
		}
	}
}

// TestShadowingAtDepth nests blocks 1200 deep, each declaring its own x
// and reading an outer variable: every print must see the innermost
// enclosing x, and leaving a block must restore the x it shadowed.
func TestShadowingAtDepth(t *testing.T) {
	const depth = 1200
	var b strings.Builder
	b.WriteString("func main() {\n  var x = 0;\n  var outer = 7;\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "{ var x = %d; var only%d = x + outer;\n", i, i)
	}
	b.WriteString("print(x);\n")
	for i := depth; i >= 1; i-- {
		fmt.Fprintf(&b, "} print(x);\n")
	}
	b.WriteString("}\n")
	p := build(t, b.String())
	var out strings.Builder
	if _, err := vm.New(p, vm.Options{Out: &out}).Run(); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "%d\n", depth)
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&want, "%d\n", i)
	}
	if out.String() != want.String() {
		t.Errorf("shadowed reads are wrong: got %.80q…, want %.80q…", out.String(), want.String())
	}

	// A name declared only in an inner block is gone once it closes,
	// however deep, and a redeclaration is reported only in its own scope.
	var deep strings.Builder
	deep.WriteString("func main() {\n")
	for i := 0; i < depth; i++ {
		deep.WriteString("{ var x = 1; ")
	}
	deep.WriteString(strings.Repeat("}", depth))
	deep.WriteString(" print(x);\n}\n")
	buildErr(t, deep.String(), "undeclared variable x")
	buildErr(t, "func main() {"+strings.Repeat(" { var x = 1;", depth)+" var x = 2;"+strings.Repeat(" }", depth)+" }", "redeclared in this scope")
}
