package analysis

import (
	"fmt"
	"sort"
	"testing"

	"objinline/internal/ir"
)

// contentGraph builds tags by hand: one object contour of a class with a
// field per tag, each tag the (contour, field) pair whose content edges
// name.
type contentGraph struct {
	class *ir.Class
	oc    *ObjContour
	tags  map[string]*Tag
}

func newContentGraph(names ...string) *contentGraph {
	class := &ir.Class{Name: "Node"}
	for i, n := range names {
		class.Fields = append(class.Fields, &ir.Field{Name: n, Slot: i, Owner: class})
	}
	g := &contentGraph{class: class, tags: make(map[string]*Tag)}
	g.oc = &ObjContour{ID: 1, Class: class, Fields: make([]VarState, len(names)), slots: fieldSlots(class)}
	for i, n := range names {
		g.tags[n] = &Tag{ID: 2 + i, OC: g.oc, Field: n, owner: class}
	}
	return g
}

func (g *contentGraph) key(name string) FieldKey { return FieldKey{Class: g.class, Name: name} }

// store records that tag from's field may hold values tagged to; "raw"
// and "top" name the sentinels.
func (g *contentGraph) store(from string, to ...string) {
	fs := g.oc.FieldState(from)
	for _, n := range to {
		switch n {
		case "raw":
			fs.Tags.Add(&Tag{ID: tagNoFieldID})
		case "top":
			fs.Tags.Add(sharedTop)
		default:
			fs.Tags.Add(g.tags[n])
		}
	}
}

func (g *contentGraph) inlined(names ...string) func(FieldKey) bool {
	set := make(map[FieldKey]bool)
	for _, n := range names {
		set[g.key(n)] = true
	}
	return func(k FieldKey) bool { return set[k] }
}

func (g *contentGraph) set(name string) *TagSet {
	var s TagSet
	s.Add(g.tags[name])
	return &s
}

func repKeys(m map[FieldKey]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k.Name)
	}
	sort.Strings(out)
	return out
}

func fmtRep(r Rep) string {
	return fmt.Sprintf("raw=%v confused=%v fields=%v involved=%v", r.Raw, r.Confused, repKeys(r.Fields), repKeys(r.Involved))
}

// permutations returns every ordering of names.
func permutations(names []string) [][]string {
	if len(names) <= 1 {
		return [][]string{append([]string(nil), names...)}
	}
	var out [][]string
	for i := range names {
		rest := append(append([]string(nil), names[:i]...), names[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{names[i]}, p...))
		}
	}
	return out
}

// TestRepResolverCycles resolves hand-built content cycles in every
// order, through one resolver (so later queries hit entries earlier ones
// memoized) and again after a Reset, and requires each tag's exact rep —
// the union of every leaf reachable from it — whichever member of a cycle
// is resolved first.
func TestRepResolverCycles(t *testing.T) {
	cases := []struct {
		name    string
		build   func(g *contentGraph)
		inlined []string
		want    map[string]string
	}{
		{
			name:  "self-loop",
			build: func(g *contentGraph) { g.store("a", "a", "raw") },
			want:  map[string]string{"a": "raw=true confused=false fields=[] involved=[]"},
		},
		{
			// b ⇄ c, and c's content may also come from the inlined d.
			name: "two-cycle exiting to an inlined field",
			build: func(g *contentGraph) {
				g.store("b", "c")
				g.store("c", "b", "d")
			},
			inlined: []string{"d"},
			want: map[string]string{
				"b": "raw=false confused=false fields=[d] involved=[d]",
				"c": "raw=false confused=false fields=[d] involved=[d]",
				"d": "raw=false confused=false fields=[d] involved=[d]",
			},
		},
		{
			// Roots r1 and r2 enter the cycle e ⇄ f at different members;
			// e leads to a raw object, f to the inlined g, so both roots
			// and both members see both.
			name: "cycle entered from two roots",
			build: func(g *contentGraph) {
				g.store("r1", "e")
				g.store("r2", "f")
				g.store("e", "f", "raw")
				g.store("f", "e", "g")
			},
			inlined: []string{"g"},
			want: map[string]string{
				"r1": "raw=true confused=false fields=[g] involved=[g]",
				"r2": "raw=true confused=false fields=[g] involved=[g]",
				"e":  "raw=true confused=false fields=[g] involved=[g]",
				"f":  "raw=true confused=false fields=[g] involved=[g]",
				"g":  "raw=false confused=false fields=[g] involved=[g]",
			},
		},
		{
			// A cycle under another: h ⇄ i reaches j ⇄ k, which reaches
			// Top and a never-stored field.
			name: "nested components",
			build: func(g *contentGraph) {
				g.store("h", "i")
				g.store("i", "h", "j")
				g.store("j", "k")
				g.store("k", "j", "top", "empty")
			},
			want: map[string]string{
				"h":     "raw=true confused=true fields=[] involved=[]",
				"i":     "raw=true confused=true fields=[] involved=[]",
				"j":     "raw=true confused=true fields=[] involved=[]",
				"k":     "raw=true confused=true fields=[] involved=[]",
				"empty": "raw=true confused=false fields=[] involved=[]",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var names []string
			for n := range c.want {
				names = append(names, n)
			}
			sort.Strings(names)
			g := newContentGraph(names...)
			c.build(g)
			rr := NewRepResolver(g.inlined(c.inlined...))
			for _, order := range permutations(names) {
				for pass := 0; pass < 2; pass++ {
					for _, n := range order {
						if got := fmtRep(rr.RepsOf(g.set(n))); got != c.want[n] {
							t.Errorf("order %v pass %d: %s resolves to %s, want %s", order, pass, n, got, c.want[n])
						}
					}
				}
				rr.Reset()
			}
			// The one-shot wrapper agrees.
			for _, n := range names {
				if got := fmtRep((*Result)(nil).RepsOf(g.set(n), g.inlined(c.inlined...))); got != c.want[n] {
					t.Errorf("Result.RepsOf: %s resolves to %s, want %s", n, got, c.want[n])
				}
			}
		})
	}
}

// TestRepResolverResetFollowsDecision checks that Reset is what makes a
// changed decision visible: without it the memo answers for the old one.
func TestRepResolverResetFollowsDecision(t *testing.T) {
	g := newContentGraph("a", "b")
	g.store("a", "b")
	inl := map[FieldKey]bool{g.key("b"): true}
	rr := NewRepResolver(func(k FieldKey) bool { return inl[k] })
	want := "raw=false confused=false fields=[b] involved=[b]"
	if got := fmtRep(rr.RepsOf(g.set("a"))); got != want {
		t.Fatalf("b inlined: a resolves to %s, want %s", got, want)
	}
	delete(inl, g.key("b"))
	if got := fmtRep(rr.RepsOf(g.set("a"))); got != want {
		t.Fatalf("before Reset: a resolves to %s, want the memoized %s", got, want)
	}
	rr.Reset()
	want = "raw=true confused=false fields=[] involved=[]"
	if got := fmtRep(rr.RepsOf(g.set("a"))); got != want {
		t.Fatalf("after Reset: a resolves to %s, want %s", got, want)
	}
}

// TestRepResolverLongChain resolves a long content cycle: n cells whose
// next fields each hold the following cell, the last closing the loop and
// also holding a raw object.
func TestRepResolverLongChain(t *testing.T) {
	const n = 100000
	class := &ir.Class{Name: "Cell"}
	class.Fields = []*ir.Field{{Name: "next", Owner: class}}
	tags := make([]*Tag, n)
	slots := fieldSlots(class)
	for i := range tags {
		oc := &ObjContour{ID: i, Class: class, Fields: make([]VarState, 1), slots: slots}
		tags[i] = &Tag{ID: 2 + i, OC: oc, Field: "next", owner: class}
	}
	for i, tag := range tags {
		tag.OC.Fields[0].Tags.Add(tags[(i+1)%n])
	}
	tags[n-1].OC.Fields[0].Tags.Add(&Tag{ID: tagNoFieldID})
	rr := NewRepResolver(func(FieldKey) bool { return false })
	want := "raw=true confused=false fields=[] involved=[]"
	for _, i := range []int{0, n / 2, n - 1} {
		var s TagSet
		s.Add(tags[i])
		if got := fmtRep(rr.RepsOf(&s)); got != want {
			t.Fatalf("cell %d resolves to %s, want %s", i, got, want)
		}
	}
}
