// Command perfbench is the repository's benchmark. It builds nothing
// itself: run.sh builds rbexp, rbserve and perfbench from source, then
// runs
//
//	perfbench --workload kernels|serve --seed N --seconds S --trace 0|1
//
// from the repository root. With --trace 0 it measures the end-to-end
// metrics with tracing off; with --trace 1 it records spans around the
// calls into each layer and reports the per-layer metrics. Every output is
// checked; the last line of standard output is the JSON result. See
// README.md in this directory for the workloads and metrics.
//
// Subcommands used by the benchmark itself or by a person comparing two
// commits:
//
//	perfbench kernel ...    one generated kernel in a fresh process
//	perfbench compare ...   paired runs of a parent and a change
//	perfbench golden        regenerate the golden files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed whose kernels digest golden/kernels.json pins.
const defaultSeed = 1

// Paths are relative to the repository root, perfbench's working
// directory.
const (
	figuresGoldenPath = "perfbench/golden/figures.json"
	kernelsGoldenPath = "perfbench/golden/kernels.json"
)

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int // serve clients and coordinator concurrency
}

// bin is the path of a binary run.sh built.
func bin(name string) string { return filepath.Join(".bench_build", "bin", name) }

// scratch is the directory for address files, logs and span dumps.
func scratch(parts ...string) string {
	return filepath.Join(append([]string{".bench_build", "run"}, parts...)...)
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		args := os.Args[2:]
		switch os.Args[1] {
		case "kernel":
			os.Exit(kernelChild(args))
		case "compare":
			os.Exit(compareMain(args))
		case "golden":
			os.Exit(goldenMain())
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown subcommand %q\n", os.Args[1])
		os.Exit(2)
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "kernels or serve")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.Parse(args)
	o.trace = trace == 1
	o.nproc = runtime.NumCPU()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	var (
		out *outcome
		err error
	)
	switch o.workload {
	case "kernels":
		out, err = runKernels(&o)
	case "serve":
		out, err = runServe(&o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be kernels or serve\n")
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := out.emit(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
