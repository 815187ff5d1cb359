package analysis

import "sort"

// canonicalize renumbers the pass's method, object and array contours
// from their sort keys. It runs at the end of every pass, before
// updatePolicies reads the pass's state.
//
// It is needed because clone emission follows contour IDs: clone.Partition
// orders each group's members by ID, and the emitted class and method
// versions follow. Left in creation order, richards' emitted IR and its
// modeled cycle count change, so IDs are assigned here by sorting on keys
// that do not depend on when a contour was created:
//
//   - method contours by (function ID, context key). Unique: the contour
//     table is keyed by exactly that pair.
//   - object and array contours by (allocation site UID, context key).
//
// Tags keep their creation-order IDs: both solvers intern them in the
// same order. The per-pass lookup tables (mcs/ocs/acs, whose creator-split
// alloc keys embed in-pass creation IDs) are never read after the pass
// ends and are rebuilt by resetPass.
func (a *analyzer) canonicalize() {
	sort.Slice(a.mcList, func(i, j int) bool {
		x, y := a.mcList[i], a.mcList[j]
		if x.Fn.ID != y.Fn.ID {
			return x.Fn.ID < y.Fn.ID
		}
		return x.Key < y.Key
	})
	for i, mc := range a.mcList {
		mc.ID = i
	}

	sort.Slice(a.ocList, func(i, j int) bool {
		x, y := a.ocList[i], a.ocList[j]
		xs, ys := siteUID(x.SiteFn, x.Site), siteUID(y.SiteFn, y.Site)
		if xs != ys {
			return xs < ys
		}
		return x.Key < y.Key
	})
	for i, oc := range a.ocList {
		oc.ID = i
	}

	sort.Slice(a.acList, func(i, j int) bool {
		x, y := a.acList[i], a.acList[j]
		xs, ys := siteUID(x.SiteFn, x.Site), siteUID(y.SiteFn, y.Site)
		if xs != ys {
			return xs < ys
		}
		return x.Key < y.Key
	})
	for i, ac := range a.acList {
		ac.ID = i
	}
}
