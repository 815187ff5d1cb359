// Command perfbench is the repository's benchmark. It runs one of two
// seeded workloads and prints, as the last line of its output, one JSON
// object with the run's correctness, operation counts and metrics:
//
//	compile-suite    the paper's five programs, baseline and inline, through
//	                 the public library, compiled and run in a closed loop
//	compile-scaling  generated stress shapes at three sizes each, compiled
//	                 and run in a closed loop
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// reports per-layer metrics, timed around calls into each layer from this
// package (the program itself is not instrumented further), and writes the
// run's spans under -out. README.md lists every metric and what should
// move it. Run it from the repository root through run.sh, which builds
// this command first:
//
//	bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the span file of a traced run
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last. Metrics holds the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts a run's operations and its failures. A failure is any
// operation that errored, was refused or timed out, or whose output the
// oracle rejected; each is printed as it happens.
type tally struct {
	w         io.Writer
	attempted int64
	failed    int64
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	fmt.Fprintf(t.w, "FAIL: "+format+"\n", args...)
}

var workloads = map[string]func(options, io.Writer) (result, error){
	"compile-suite":   runSuite,
	"compile-scaling": runScaling,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "compile-suite or compile-scaling")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the measured phase; a run makes passes in proportion")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		return 2
	}
	res, err := w(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
