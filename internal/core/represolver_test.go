package core

import (
	"fmt"
	"os"
	"regexp"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
)

// oracleRepsOf is the per-query resolver analysis.RepResolver replaced,
// kept as its oracle: a fresh memo for every query and a depth-first walk
// that cuts content cycles at the tags on its path ("active"), so a memo
// entry made below a cut may miss what the cut hid and can serve only the
// query that made it.
func oracleRepsOf(tags *analysis.TagSet, inlined func(analysis.FieldKey) bool) analysis.Rep {
	o := &oracleResolver{inlined: inlined, memo: make(map[*analysis.Tag]analysis.Rep), active: make(map[*analysis.Tag]bool)}
	var out analysis.Rep
	for _, t := range tags.List() {
		out.Add(o.resolve(t))
	}
	return out
}

type oracleResolver struct {
	inlined func(analysis.FieldKey) bool
	memo    map[*analysis.Tag]analysis.Rep
	active  map[*analysis.Tag]bool
}

func (o *oracleResolver) resolve(t *analysis.Tag) analysis.Rep {
	switch {
	case t == nil:
		return analysis.Rep{}
	case t.IsNoField():
		return analysis.Rep{Raw: true}
	case t.IsTop():
		return analysis.Rep{Confused: true}
	}
	if rep, ok := o.memo[t]; ok {
		return rep
	}
	if o.active[t] {
		return analysis.Rep{}
	}
	o.active[t] = true
	defer delete(o.active, t)

	key := t.Head()
	var rep analysis.Rep
	if o.inlined != nil && o.inlined(key) {
		rep.Fields = map[analysis.FieldKey]bool{key: true}
		rep.Involved = map[analysis.FieldKey]bool{key: true}
	} else {
		var content *analysis.TagSet
		if t.AC != nil {
			content = &t.AC.Elem.Tags
		} else if fs := t.OC.FieldState(t.Field); fs != nil {
			content = &fs.Tags
		}
		if content == nil || content.Len() == 0 {
			rep.Raw = true
		} else {
			for _, ct := range content.List() {
				rep.Add(o.resolve(ct))
			}
		}
	}
	o.memo[t] = rep
	return rep
}

// sameRep reports whether two reps are equal, nil and empty maps alike.
func sameRep(a, b analysis.Rep) bool {
	sameSet := func(x, y map[analysis.FieldKey]bool) bool {
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if !y[k] {
				return false
			}
		}
		return true
	}
	return a.Raw == b.Raw && a.Confused == b.Confused &&
		sameSet(a.Fields, b.Fields) && sameSet(a.Involved, b.Involved)
}

func repString(r analysis.Rep) string {
	return fmt.Sprintf("{raw=%v confused=%v fields=[%s] involved=[%s]}",
		r.Raw, r.Confused, fieldNames(r.Fields), fieldNames(r.Involved))
}

// checkedQuerier answers with the shared resolver and checks every answer
// against the oracle under the decision as it stands at the query.
type checkedQuerier struct {
	t       *testing.T
	name    string
	rr      *analysis.RepResolver
	inlined func(analysis.FieldKey) bool

	queries, afterReset, resets int
}

func (c *checkedQuerier) RepsOf(tags *analysis.TagSet) analysis.Rep {
	got := c.rr.RepsOf(tags)
	want := oracleRepsOf(tags, c.inlined)
	c.queries++
	if c.resets > 0 {
		c.afterReset++
	}
	if !sameRep(got, want) {
		c.t.Errorf("%s: RepsOf(%s) = %s, oracle says %s", c.name, tags, repString(got), repString(want))
	}
	return got
}

func (c *checkedQuerier) Reset() {
	c.resets++
	c.rr.Reset()
}

// compileForCore runs the front end and the analysis on one program.
func compileForCore(t testing.TB, name, src string, opts analysis.Options) (*ir.Program, *analysis.Result) {
	t.Helper()
	tree, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	info, err := sem.Check(tree)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog, err := lower.Lower(info)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog, analysis.Analyze(prog, opts)
}

// TestRepResolverMatchesOracle answers every query pruneInconsistent makes
// while optimizing the benchmark programs and the fuzz corpus — fully
// analyzed and starved of contours — with the shared, SCC-memoized
// resolver, and requires the per-query oracle's answer each time,
// including for the queries that follow a mid-round Reset.
func TestRepResolverMatchesOracle(t *testing.T) {
	corpus := liveUseCorpus(t)
	var all []*checkedQuerier
	defer func(orig func(func(analysis.FieldKey) bool) repQuerier) { newRepQuerier = orig }(newRepQuerier)
	for _, leg := range []struct {
		name string
		opts analysis.Options
	}{
		{"full", analysis.Options{Tags: true}},
		{"starved", analysis.Options{Tags: true, MaxContours: 17}},
	} {
		for name, src := range corpus {
			name := leg.name + "/" + name
			newRepQuerier = func(inlined func(analysis.FieldKey) bool) repQuerier {
				c := &checkedQuerier{t: t, name: name, rr: analysis.NewRepResolver(inlined), inlined: inlined}
				all = append(all, c)
				return c
			}
			prog, res := compileForCore(t, name, src, leg.opts)
			if _, err := Optimize(prog, res, Options{Inline: true}); err != nil && leg.name == "full" {
				// A starved analysis may legitimately fail to converge;
				// its queries were checked all the same.
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	queries, afterReset, resets := 0, 0, 0
	for _, c := range all {
		queries += c.queries
		afterReset += c.afterReset
		resets += c.resets
	}
	if queries == 0 || afterReset == 0 {
		t.Errorf("%d queries, %d after a reset: the corpus does not exercise the resolver", queries, afterReset)
	}
	t.Logf("%d prune calls, %d queries, %d resets, %d queries after a reset", len(all), queries, resets, afterReset)
}

// BenchmarkDecide measures the inlining decision alone — local filters,
// store checks, containment cycles and the consistency prune — on the
// richards benchmark, analyzed once outside the loop.
func BenchmarkDecide(b *testing.B) {
	raw, err := os.ReadFile("../bench/progs/richards.icc")
	if err != nil {
		b.Fatal(err)
	}
	src := regexp.MustCompile(`\$[A-Z_]+`).ReplaceAllString(string(raw), "2")
	prog, res := compileForCore(b, "richards.icc", src, analysis.Options{Tags: true})
	val := newValuability(prog, res)
	b.ReportAllocs()
	for b.Loop() {
		decide(prog, res, val)
	}
}
