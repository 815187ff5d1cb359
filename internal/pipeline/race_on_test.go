//go:build race

package pipeline_test

// raceEnabled reports whether the test binary runs under the race
// detector, whose per-access cost grows with the memory a program touches
// and so distorts timing ratios.
const raceEnabled = true
