package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// A scaled input of compile-scaling: one stress shape at one size, with
// the output the program must print, computed here by evaluating the
// generated program's arithmetic directly (never by the compiler under
// test).
type genInput struct {
	Shape string
	Rank  int // 0, 1 or 2: the smallest, middle or largest size; -1 a session's
	N     int
	Src   string
	Want  string
}

func (g genInput) name() string { return fmt.Sprintf("%s-%d", g.Shape, g.N) }

// shape is one stress shape of the ROADMAP: gen writes a program of size
// n from r and returns it with the value it prints.
type shape struct {
	name string
	// sizes are the three sizes measured, each twice the last, chosen so
	// that the largest compiles in well under a second on a 2-core box.
	sizes [3]int
	gen   func(r *rand.Rand, n int) (src string, want int64)
}

// modulus keeps every generated value small enough that no product
// overflows and every remainder is of a non-negative number, so Go's %
// and Mini-ICC's % agree.
const modulus = 1000003

var shapes = []shape{
	{"chain", [3]int{2000, 4000, 8000}, genChain},
	{"access", [3]int{1000, 2000, 4000}, genAccess},
	{"nesting", [3]int{400, 800, 1600}, genNesting},
	{"straight", [3]int{2000, 4000, 8000}, genStraight},
	{"classes", [3]int{250, 500, 1000}, genClasses},
	{"wide", [3]int{200, 400, 800}, genWide},
}

// genInputs builds every compile-scaling input from seed.
func genInputs(seed int64) []genInput {
	var out []genInput
	for si := range shapes {
		for rank := range shapes[si].sizes {
			out = append(out, genShape(seed, si, rank))
		}
	}
	return out
}

// genShape builds shape si at its size of the given rank; rank -1 is the
// quarter-size input compile-scaling pins in a session, small enough that
// resubmitting it measures the session rather than the memory bandwidth of
// comparing long texts. Each (shape, size) draws from its own stream, so
// the inputs of one shape do not depend on the others.
func genShape(seed int64, si, rank int) genInput {
	sh := shapes[si]
	n := sh.sizes[0] / 4
	if rank >= 0 {
		n = sh.sizes[rank]
	}
	r := rand.New(rand.NewPCG(uint64(seed), uint64(si)<<32|uint64(n)))
	src, want := sh.gen(r, n)
	return genInput{Shape: sh.name, Rank: rank, N: n, Src: src, Want: fmt.Sprintf("%d\n", want)}
}

// genChain is a long binary + chain: x = d1 + d2 + … + dn.
func genChain(r *rand.Rand, n int) (string, int64) {
	var b strings.Builder
	b.WriteString("func main() {\n  var x = ")
	var want int64
	for i := 0; i < n; i++ {
		d := r.Int64N(9) + 1
		want += d
		if i > 0 {
			b.WriteString(" + ")
			if i%16 == 0 {
				b.WriteString("\n    ")
			}
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteString(";\n  print(x);\n}\n")
	return b.String(), want
}

// genAccess is one expression of n field, index and method-call steps
// down a linked list built at run time: head.next.kids[0].step()….v. The
// three kinds of step come in equal numbers, in a seeded order, so every
// seed does the same work.
func genAccess(r *rand.Rand, n int) (string, int64) {
	a, c := r.Int64N(90)+10, r.Int64N(1000)
	var b strings.Builder
	b.WriteString(`class Node {
  v; next; kids;
  def init(v, next) {
    self.v = v;
    self.next = next;
    self.kids = new [1];
    self.kids[0] = next;
  }
  def step() { return self.next; }
}
`)
	const extra = 5
	fmt.Fprintf(&b, "func main() {\n  var head = nil;\n  for (var i = 0; i < %d; i = i + 1) { head = new Node((i * %d + %d) %% 1000, head); }\n  print(head", n+1+extra, a, c)
	steps := []string{".next", ".kids[0]", ".step()"}
	for i, k := range r.Perm(n) {
		if i%16 == 15 {
			b.WriteString("\n    ")
		}
		b.WriteString(steps[k%len(steps)])
	}
	b.WriteString(".v);\n}\n")
	// head is node n+extra; n steps reach node extra.
	return b.String(), (extra*a + c) % 1000
}

// genNesting nests n if statements. Each level tests x against a
// remainder x never has, so every seed takes the same path to the
// innermost level, updating x on the way; the else branches are never
// taken.
func genNesting(r *rand.Rand, n int) (string, int64) {
	x := r.Int64N(modulus)
	var b strings.Builder
	fmt.Fprintf(&b, "func main() {\n  var x = %d;\n", x)
	elses := make([]string, n)
	for i := 0; i < n; i++ {
		k := (x%97 + 1 + r.Int64N(96)) % 97
		a, c, d := r.Int64N(9)+2, r.Int64N(1000), r.Int64N(1000)
		fmt.Fprintf(&b, "if (x %% 97 != %d) { x = (x * %d + %d) %% %d;\n", k, a, c, modulus)
		elses[i] = fmt.Sprintf("} else { x = (x + %d) %% %d; }\n", d, modulus)
		x = (x*a + c) % modulus
	}
	for i := n - 1; i >= 0; i-- {
		b.WriteString(elses[i])
	}
	b.WriteString("  print(x);\n}\n")
	return b.String(), x
}

// genStraight is a straight-line body of n statements, each defining a
// new local from the previous one and an earlier one.
func genStraight(r *rand.Rand, n int) (string, int64) {
	v := make([]int64, n+1)
	v[0] = r.Int64N(modulus)
	var b strings.Builder
	fmt.Fprintf(&b, "func main() {\n  var v0 = %d;\n", v[0])
	for i := 1; i <= n; i++ {
		j := r.IntN(i)
		a := r.Int64N(9) + 2
		v[i] = (v[i-1]*a + v[j]) % modulus
		fmt.Fprintf(&b, "  var v%d = (v%d * %d + v%d) %% %d;\n", i, i-1, a, j, modulus)
	}
	fmt.Fprintf(&b, "  print(v%d);\n}\n", n)
	return b.String(), v[n]
}

// genClasses declares n subclasses of one base, each overriding a method
// over an object-valued field (an inlining candidate in every class),
// and calls each once.
func genClasses(r *rand.Rand, n int) (string, int64) {
	var b strings.Builder
	b.WriteString(`class P {
  x;
  def init(x) { self.x = x; }
}
class B {
  p;
  def init(k) { self.p = new P(k); }
  def val() { return self.p.x; }
}
`)
	var want int64
	var calls strings.Builder
	for i := 0; i < n; i++ {
		m, a, k := r.Int64N(9)+1, r.Int64N(100), r.Int64N(100)
		want += k*m + a
		fmt.Fprintf(&b, "class C%d : B {\n  def val() { return self.p.x * %d + %d; }\n}\n", i, m, a)
		fmt.Fprintf(&calls, "  s = s + new C%d(%d).val();\n", i, k)
	}
	fmt.Fprintf(&b, "func main() {\n  var s = 0;\n%s  print(s);\n}\n", calls.String())
	return b.String(), want
}

// genWide declares one class with n fields, every fourth holding an
// object, and sums them all.
func genWide(r *rand.Rand, n int) (string, int64) {
	s := r.Int64N(1000)
	var b strings.Builder
	b.WriteString("class P {\n  x;\n  def init(x) { self.x = x; }\n}\nclass W {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  f%d;\n", i)
	}
	var init, total strings.Builder
	var want int64
	for i := 0; i < n; i++ {
		c := r.Int64N(1000)
		want += s + c
		if i%4 == 0 {
			fmt.Fprintf(&init, "    self.f%d = new P(s + %d);\n", i, c)
			fmt.Fprintf(&total, "    t = t + self.f%d.x;\n", i)
		} else {
			fmt.Fprintf(&init, "    self.f%d = s + %d;\n", i, c)
			fmt.Fprintf(&total, "    t = t + self.f%d;\n", i)
		}
	}
	fmt.Fprintf(&b, "  def init(s) {\n%s  }\n  def total() {\n    var t = 0;\n%s    return t;\n  }\n}\n", init.String(), total.String())
	fmt.Fprintf(&b, "func main() {\n  var w = new W(%d);\n  print(w.total());\n}\n", s)
	return b.String(), want
}
