package analysis

// Rep describes how a value is represented at run time once a set of
// fields has been chosen for inlining. A tag resolves to one or more of:
//
//   - the raw object itself (it did not flow from an inlined field);
//   - the container of an inlined field (identified by its FieldKey);
//   - confusion (the analysis cannot pin the representation down).
//
// This is the resolution step behind the paper's decision rule ("a field
// can be inline allocated only if this analysis is able to distinguish
// exactly where the given field is used"): a value that might be either a
// raw object and a container rep — or containers of two different fields —
// cannot be rewritten consistently, so the involved fields are rejected.
type Rep struct {
	Raw      bool
	Fields   map[FieldKey]bool
	Confused bool

	// Involved collects every candidate field consulted during
	// resolution; when a value turns out inconsistent, these are the
	// candidates the decision must reject.
	Involved map[FieldKey]bool
}

// Add merges another rep into r.
func (r *Rep) Add(o Rep) {
	r.Raw = r.Raw || o.Raw
	r.Confused = r.Confused || o.Confused
	for k := range o.Fields {
		r.addField(k)
	}
	for k := range o.Involved {
		r.involve(k)
	}
}

func (r *Rep) involve(k FieldKey) {
	if r.Involved == nil {
		r.Involved = make(map[FieldKey]bool)
	}
	r.Involved[k] = true
}

func (r *Rep) addField(k FieldKey) {
	if r.Fields == nil {
		r.Fields = make(map[FieldKey]bool)
	}
	r.Fields[k] = true
}

// Unique reports whether the rep is exactly one inlined field's container
// (no raw alternative, no confusion) and returns that field.
func (r *Rep) Unique() (FieldKey, bool) {
	if r.Raw || r.Confused || len(r.Fields) != 1 {
		return FieldKey{}, false
	}
	for k := range r.Fields {
		return k, true
	}
	return FieldKey{}, false
}

// PureRaw reports whether the value is definitely the raw object.
func (r *Rep) PureRaw() bool { return r.Raw && !r.Confused && len(r.Fields) == 0 }

// RepsOf resolves a tag set against a tentative inlining decision with a
// resolver of its own; see RepResolver, which callers making many queries
// against one decision should share.
func (r *Result) RepsOf(tags *TagSet, inlined func(FieldKey) bool) Rep {
	return NewRepResolver(inlined).RepsOf(tags)
}

// RepResolver resolves tag sets against one tentative inlining decision:
// inlined(k) reports whether field k is (still) a candidate. A tag's rep
// is the union of the leaf contributions reachable from it through the
// content of non-inlined fields. The leaves are NoField and never-stored
// fields (Raw), inlined fields (Fields and Involved) and Top (Confused).
//
// Reps are computed per strongly connected component of the content graph
// (content provenance has cycles, e.g. self-referential cons chains), so
// every member of a cycle gets the whole cycle's rep — the least fixpoint
// — and every memo entry is exact whichever tag a query reaches it from.
// That is what lets one memo serve every query until the decision changes;
// call Reset whenever inlined would answer differently.
type RepResolver struct {
	inlined func(FieldKey) bool
	memo    map[*Tag]Rep

	// Tarjan state. order numbers tags as the walk enters them; low,
	// onStack and acc are indexed by that number, acc holding the rep
	// gathered so far at each tag. Every tag entered by an earlier query
	// is finished (in memo), so the numbering simply runs on until Reset.
	order   map[*Tag]int32
	low     []int32
	onStack []bool
	acc     []Rep
	stack   []int32
	tags    []*Tag
	frames  []repFrame
	// succ holds the unvisited successors of every frame, frames' ranges
	// nested as a stack.
	succ []*Tag
}

// repFrame is one tag on the walk's path. Its successors are succ[start:]
// and those still to visit succ[next:]: a frame reads succ only while it
// is the top one, when nothing lies above its successors.
type repFrame struct {
	v           int32 // the tag's order number
	start, next int
}

// NewRepResolver returns a resolver for the decision inlined describes.
func NewRepResolver(inlined func(FieldKey) bool) *RepResolver {
	return &RepResolver{inlined: inlined, memo: make(map[*Tag]Rep), order: make(map[*Tag]int32)}
}

// Reset forgets every resolved rep; call it when the decision changes.
func (rr *RepResolver) Reset() {
	clear(rr.memo)
	clear(rr.order)
	rr.low, rr.onStack, rr.acc, rr.tags = rr.low[:0], rr.onStack[:0], rr.acc[:0], rr.tags[:0]
}

// RepsOf resolves a tag set. The result is the caller's to modify.
func (rr *RepResolver) RepsOf(tags *TagSet) Rep {
	var out Rep
	for t := range tags.m {
		out.Add(rr.resolve(t))
	}
	return out
}

// known returns t's rep without walking when t is a sentinel, already
// resolved, or an inlined field (whose rep it memoizes).
func (rr *RepResolver) known(t *Tag) (Rep, bool) {
	switch {
	case t == nil:
		return Rep{}, true
	case t.IsNoField():
		return Rep{Raw: true}, true
	case t.IsTop():
		return Rep{Confused: true}, true
	}
	if rep, ok := rr.memo[t]; ok {
		return rep, true
	}
	if rr.inlined == nil {
		return Rep{}, false
	}
	key := t.Head()
	if !rr.inlined(key) {
		return Rep{}, false
	}
	// The field is inlined: the value is the container's rep. The
	// container itself is described by the base tag; its identity is what
	// the *transformation* needs, but for representation consistency the
	// field key suffices.
	var rep Rep
	rep.involve(key)
	rep.addField(key)
	rr.memo[t] = rep
	return rep, true
}

// resolve returns t's rep, walking the content graph below it with an
// iterative Tarjan, so that a long content chain
// costs heap rather than goroutine stack.
func (rr *RepResolver) resolve(t *Tag) Rep {
	if rep, ok := rr.known(t); ok {
		return rep
	}
	rr.enter(t)
	for len(rr.frames) > 0 {
		f := &rr.frames[len(rr.frames)-1]
		v := f.v
		if f.next < len(rr.succ) {
			u := rr.succ[f.next]
			f.next++
			if rep, ok := rr.known(u); ok {
				rr.acc[v].Add(rep)
			} else if w, seen := rr.order[u]; !seen {
				rr.enter(u)
			} else if rr.onStack[w] && w < rr.low[v] {
				rr.low[v] = w
			}
			continue
		}
		rr.succ = rr.succ[:f.start]
		rr.frames = rr.frames[:len(rr.frames)-1]
		if rr.low[v] == v {
			// v roots a component: every member gets its union.
			rep := rr.acc[v]
			for {
				w := rr.stack[len(rr.stack)-1]
				rr.stack = rr.stack[:len(rr.stack)-1]
				rr.onStack[w] = false
				rr.memo[rr.tags[w]] = rep
				if w == v {
					break
				}
			}
		}
		if len(rr.frames) == 0 {
			break
		}
		p := rr.frames[len(rr.frames)-1].v
		if rr.onStack[v] {
			// Same component as the parent: hand it what v gathered.
			if rr.low[v] < rr.low[p] {
				rr.low[p] = rr.low[v]
			}
			rr.acc[p].Add(rr.acc[v])
		} else {
			rr.acc[p].Add(rr.memo[rr.tags[v]])
		}
	}
	return rr.memo[t]
}

// enter numbers a non-inlined tag and pushes its frame: its successors
// are the tags of the field's recorded content.
func (rr *RepResolver) enter(t *Tag) {
	v := int32(len(rr.low))
	rr.order[t] = v
	rr.low = append(rr.low, v)
	rr.onStack = append(rr.onStack, true)
	rr.acc = append(rr.acc, Rep{})
	rr.tags = append(rr.tags, t)
	rr.stack = append(rr.stack, v)
	var content *TagSet
	if t.AC != nil {
		content = &t.AC.Elem.Tags
	} else if fs := t.OC.FieldState(t.Field); fs != nil {
		content = &fs.Tags
	}
	start := len(rr.succ)
	if content == nil || content.Len() == 0 {
		// Never stored (or analysis gap): reading yields nil at run time;
		// treat as raw.
		rr.acc[v].Raw = true
	} else {
		for ct := range content.m {
			rr.succ = append(rr.succ, ct)
		}
	}
	rr.frames = append(rr.frames, repFrame{v: v, start: start, next: start})
}
