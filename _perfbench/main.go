// Command perfbench is gbpolar's end-to-end benchmark. It drives the
// library in process through its own packages on one workload, checks
// every energy it computes, and reports host-normalized metrics:
//
//	bash _perfbench/run.sh --workload roster-cold --seed 1 --seconds 20 --trace 0
//
// Standard error gets a table of every metric measured, with its unit.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: --trace 0 reports the
// end-to-end metrics of BENCHMARK.json, --trace 1 runs the traced variant
// and reports the per-layer ones. The exit status is nonzero when any
// operation or check fails. NOTES.md explains the workloads, the
// metrics and the host normalization.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool // tiny inputs, for the self-test
}

// loopSeconds is the measured time of each loop: a traced run splits its
// time between an untraced and a traced loop.
func (c config) loopSeconds() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// workloads maps each workload of BENCHMARK.json to its run function.
var workloads = map[string]func(config) (*report, error){
	"roster-cold":  runRosterCold,
	"warm-mpi2":    runWarmMPI2,
	"serve-closed": runServeClosed,
}

func main() {
	name := flag.String("workload", "", "roster-cold, warm-mpi2 or serve-closed")
	seed := flag.Int64("seed", 1, "workload seed: the molecule order and the request mix")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload roster-cold|warm-mpi2|serve-closed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Every workload runs on at most two threads, like the 2-vCPU VM the
	// baseline was measured on.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.print(os.Stderr, *name, cfg)
	line, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: encoding the result: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}
