package main

// endToEnd lists every end-to-end metric with its unit; an untraced run
// of either workload reports all of them. README.md defines each one.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"compile_s_total", "s"},
	{"compile_ms_geomean", "ms"},
	{"compile_exponent", "exponent"},
	{"compile_alloc_mb", "MB"},
	{"code_size", "instrs"},
	{"run_cycles_geomean", "cycles"},
	{"vm_run_ms_geomean", "ms"},
	{"patch_ms_p50", "ms"},
}

// endToEndMetrics attaches each end-to-end metric's unit to its value; a
// metric missing from v reads 0.
func endToEndMetrics(v map[string]float64) map[string]metric {
	m := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = metric{v[e.name], e.unit}
	}
	return m
}

// perLayer lists every per-layer metric with its unit; a traced run of
// either workload reports all of them.
var perLayer = []struct{ name, unit string }{
	{"parser.ms", "ms"}, {"parser.ns_per_byte", "ns/B"},
	{"sem.ms", "ms"},
	{"lower.ms", "ms"}, {"lower.ns_per_byte", "ns/B"}, {"lower.instrs", "count"},
	{"analysis.ms", "ms"}, {"analysis.alloc_mb", "MB"}, {"analysis.instr_evals", "count"},
	{"analysis.contour_evals", "count"}, {"analysis.contours", "count"},
	{"core.ms", "ms"}, {"core.alloc_mb", "MB"}, {"core.attempts", "count"},
	{"core.inlined", "count"}, {"core.clones", "count"}, {"core.inlined_ratio", "ratio"},
	{"funcinline.ms", "ms"}, {"funcinline.instrs", "count"},
	{"verify.ms", "ms"},
	{"peephole.ms", "ms"}, {"peephole.instrs", "count"},
	{"vm.ms", "ms"}, {"vm.instructions", "count"}, {"vm.cycles", "cycles"},
	{"vm.cache_misses", "count"}, {"vm.allocations", "count"}, {"vm.ns_per_instr", "ns"},
	{"session.patch_ms", "ms"}, {"session.tier_patch_ratio", "ratio"},
	{"server.miss_ms", "ms"}, {"server.hit_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.compiles", "count"}, {"server.cache_hit_ratio", "ratio"},
	{"compile.unaccounted_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
	{"host.ref_ms", "ms"},
}

func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		m[p.name] = metric{0, p.unit}
	}
	return m
}
