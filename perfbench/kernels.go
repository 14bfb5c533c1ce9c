package main

// The kernels workload: seeded workload.Generate kernels, each run once on
// one machine and width in a fresh process (the rbsim pattern), one
// process at a time. Nothing is reused across kernels, so trace generation
// is paid in full every time.
//
// With two processes at a time, a pass ends when the slower slot does, so
// when the host took time from one CPU the pass stretched far more than
// the work: on a 2-CPU host the pass wall time spread 25% across ten runs
// while CPU time spread 6%. One at a time, the pass wall time is the
// kernels' own.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// kernelsPerPass is the size of one pass; the strata below have this many
// entries each.
const kernelsPerPass = 16

// kernelInsts is the dynamic instruction count each kernel aims for.
const kernelInsts = 250_000

// Every pass draws each knob from the same multiset, permuted by the seed,
// so passes and seeds differ in which kernel gets which value but not in
// the mix. Footprints run from inside the 8 KB L1D to beyond the 1 MB L2.
var (
	kFootprints = []int{4 << 10, 4 << 10, 4 << 10, 4 << 10, 32 << 10, 32 << 10, 32 << 10, 32 << 10,
		256 << 10, 256 << 10, 256 << 10, 256 << 10, 4 << 20, 4 << 20, 4 << 20, 4 << 20}
	kChains   = []int{1, 2, 2, 3, 4, 4, 6, 8, 8, 10, 12, 16, 16, 20, 24, 32}
	kLoads    = []int{0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 1, 2, 3}
	kStores   = []int{0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 0}
	kTaken    = []int{0, 10, 25, 40, 50, 50, 60, 75, 85, 85, 90, 95, 100, 100, 50, 85}
	kLogical  = []int{0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 1, 0, 2, 1}
	kMuls     = []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 0, 0}
	kMachines = []string{"baseline", "rb-limited", "rb-full", "ideal"}
	kWidths   = []int{4, 8}
)

// kernelSpec is one kernel run: generator knobs plus the machine.
type kernelSpec struct {
	Params  workload.GenParams `json:"params"`
	Machine string             `json:"machine"`
	Width   int                `json:"width"`
}

// splitmix is the benchmark's seeded generator.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// permuted returns a seeded shuffle of xs.
func permuted[T any](r *splitmix, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// kernelSet is pass's kernels for seed: a pure function of both.
func kernelSet(seed uint64, pass int) []kernelSpec {
	r := &splitmix{s: seed*0x100000001b3 ^ uint64(pass)*0x9e3779b97f4a7c15}
	fp := permuted(r, kFootprints)
	ch := permuted(r, kChains)
	ld := permuted(r, kLoads)
	st := permuted(r, kStores)
	tk := permuted(r, kTaken)
	lg := permuted(r, kLogical)
	mu := permuted(r, kMuls)
	var combos []kernelSpec
	for _, m := range kMachines {
		for _, w := range kWidths {
			combos = append(combos, kernelSpec{Machine: m, Width: w}, kernelSpec{Machine: m, Width: w})
		}
	}
	combos = permuted(r, combos)
	out := make([]kernelSpec, kernelsPerPass)
	for i := range out {
		perIter := 16 + ch[i] + 4*(ld[i]+st[i]) + lg[i] + mu[i]
		out[i] = kernelSpec{
			Params: workload.GenParams{
				Name:               fmt.Sprintf("k%d.%d", pass, i),
				Iterations:         kernelInsts / perIter,
				ChainLength:        ch[i],
				Loads:              ld[i],
				Stores:             st[i],
				FootprintBytes:     fp[i],
				BranchTakenPercent: tk[i],
				LogicalOps:         lg[i],
				MulOps:             mu[i],
				Seed:               r.next()>>1 | 1,
			},
			Machine: combos[i].Machine,
			Width:   combos[i].Width,
		}
	}
	return out
}

// kernelResult is a kernel child's last stdout line.
type kernelResult struct {
	Digest       string  `json:"digest"` // of the JSON-encoded core.Result
	Insts        int64   `json:"insts"`  // retired
	Cycles       int64   `json:"cycles"`
	TraceLen     int     `json:"trace_len"`
	TraceNs      int64   `json:"trace_ns"`
	CoreNs       int64   `json:"core_ns"`
	TraceAllocMB float64 `json:"trace_alloc_mb,omitempty"`
	AllocMB      float64 `json:"alloc_mb,omitempty"`
	GCCycles     uint32  `json:"gc_cycles,omitempty"`
	Spans        []Span  `json:"spans,omitempty"`
}

// check applies the kernel output invariants: every trace entry retires,
// and IPC never exceeds the machine width.
func (k *kernelResult) check(width int) error {
	if k.Insts != int64(k.TraceLen) || k.TraceLen == 0 {
		return fmt.Errorf("retired %d of %d trace entries", k.Insts, k.TraceLen)
	}
	if k.Cycles <= 0 || float64(k.Insts)/float64(k.Cycles) > float64(width) {
		return fmt.Errorf("IPC %d/%d exceeds width %d", k.Insts, k.Cycles, width)
	}
	return nil
}

// kernelChild runs one kernel:
//
//	perfbench kernel -spec '<kernelSpec JSON>' [-trace]
//
// It prints "ready" once its arguments are parsed, then the kernelResult.
func kernelChild(args []string) int {
	fs := flag.NewFlagSet("kernel", flag.ExitOnError)
	specJSON := fs.String("spec", "", "kernel spec (JSON)")
	traced := fs.Bool("trace", false, "record spans and allocation")
	fs.Parse(args)
	var spec kernelSpec
	if err := json.Unmarshal([]byte(*specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench kernel: bad spec: %v\n", err)
		return 2
	}
	// One Go thread leaves the other CPUs to perfbench and the host, so
	// the kernel is not descheduled for them.
	runtime.GOMAXPROCS(1)
	fmt.Println("ready")
	res, err := runKernel(spec, *traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench kernel: %s: %v\n", spec.Params.Name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench kernel: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

func runKernel(spec kernelSpec, traced bool) (*kernelResult, error) {
	var rec *Recorder
	if traced {
		rec = newRecorder()
	}
	var ms runtime.MemStats
	name := spec.Params.Name
	id := rec.Begin("workload.generate", 0, name)
	w, err := workload.Generate(spec.Params)
	rec.End(id)
	if err != nil {
		return nil, err
	}
	cfg, err := machine.ByName(spec.Machine, spec.Width)
	if err != nil {
		return nil, err
	}
	var before uint64
	if traced {
		runtime.ReadMemStats(&ms)
		before = ms.TotalAlloc
	}
	id = rec.Begin("emu.trace", 0, name)
	t0 := time.Now()
	trace, err := w.Trace()
	traceNs := time.Since(t0).Nanoseconds()
	rec.End(id)
	if err != nil {
		return nil, err
	}
	res := &kernelResult{TraceLen: len(trace), TraceNs: traceNs}
	if traced {
		runtime.ReadMemStats(&ms)
		res.TraceAllocMB = float64(ms.TotalAlloc-before) / (1 << 20)
	}
	id = rec.Begin("core.run", 0, name)
	t0 = time.Now()
	r, err := core.NewBuffers().Run(cfg, name, trace)
	res.CoreNs = time.Since(t0).Nanoseconds()
	rec.End(id)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	res.Digest = digest(b)
	res.Insts, res.Cycles = r.Instructions, r.Cycles
	if traced {
		runtime.ReadMemStats(&ms)
		res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
		res.GCCycles = ms.NumGC
		res.Spans = rec.Spans()
	}
	return res, nil
}

// kernelRun is one kernel as perfbench saw it from outside.
type kernelRun struct {
	spec kernelSpec
	proc procRun
	res  kernelResult
	err  error
}

// verify returns the kernel's error, if any: a failed child, a broken
// invariant, or, when want pins the pass, a result digest other than
// want[i].
func (kr *kernelRun) verify(want []string, i int) error {
	if kr.err != nil {
		return kr.err
	}
	if want != nil && kr.res.Digest != want[i] {
		return fmt.Errorf("result digest %.12s differs from the pinned %.12s", kr.res.Digest, want[i])
	}
	return nil
}

// runKernelPass runs one pass, one child process at a time, in spec order.
func runKernelPass(specs []kernelSpec, traced bool) []kernelRun {
	runs := make([]kernelRun, len(specs))
	for i, spec := range specs {
		runs[i] = runOneKernel(spec, traced)
	}
	return runs
}

func runOneKernel(spec kernelSpec, traced bool) kernelRun {
	kr := kernelRun{spec: spec}
	b, err := json.Marshal(spec)
	if err != nil {
		kr.err = err
		return kr
	}
	args := []string{"kernel", "-spec", string(b)}
	if traced {
		args = append(args, "-trace")
	}
	kr.proc = runProc(bin("perfbench"), args, true)
	switch {
	case kr.proc.Err != nil:
		kr.err = kr.proc.Err
	case kr.proc.Ready.IsZero():
		kr.err = fmt.Errorf("kernel %s never reported ready", spec.Params.Name)
	default:
		if err := json.Unmarshal(lastLine(kr.proc.Stdout), &kr.res); err != nil {
			kr.err = fmt.Errorf("kernel %s: %w", spec.Params.Name, err)
		} else {
			kr.err = kr.res.check(spec.Width)
		}
	}
	return kr
}

// kernelsGolden pins the per-kernel result digests of the default seed's
// first pass.
type kernelsGolden struct {
	Seed    uint64   `json:"seed"`
	Pass    int      `json:"pass"`
	Digests []string `json:"digests"`
}

// passSpecs returns a run's kernels for pass, with the digests they must
// produce. Pass 0 of every run, whatever its seed, is the pinned pass, so
// every run checks pinned result digests; later passes draw from the
// run's seed and are checked by the invariants alone. Every pass holds the
// same mix of knobs, so the pinned pass times like any other.
func (kg *kernelsGolden) passSpecs(seed uint64, pass int) ([]kernelSpec, []string) {
	if pass == 0 {
		return kernelSet(kg.Seed, kg.Pass), kg.Digests
	}
	return kernelSet(seed, pass), nil
}

func loadKernelsGolden(path string) (*kernelsGolden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var kg kernelsGolden
	if err := json.Unmarshal(b, &kg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(kg.Digests) != kernelsPerPass {
		return nil, fmt.Errorf("%s: %d digests, want %d", path, len(kg.Digests), kernelsPerPass)
	}
	return &kg, nil
}

func runKernels(o *options) (*outcome, error) {
	pinned, err := loadKernelsGolden(kernelsGoldenPath)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var (
		setups, walls, cpus, rss []float64
		tracedWalls              []float64
		coreMs, latMs            []float64
		rec                      *Recorder
		utilSum                  float64
		tracedKernels            int
		tracedTime               float64
	)
	if o.trace {
		rec = newRecorder()
	}
	v := out.values
	// doPass runs and checks one pass; traced passes feed the layer
	// metrics.
	doPass := func(pass int, traced bool) {
		specs, want := pinned.passSpecs(o.seed, pass)
		passStart := time.Now()
		runs := runKernelPass(specs, traced)
		var first, last time.Time
		var cpu, peak, busy float64
		for i, kr := range runs {
			out.attempted++
			if err := kr.verify(want, i); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: kernel %s: %v\n", kr.spec.Params.Name, err)
				out.fail(kr.proc.Err == nil)
				continue
			}
			p := kr.proc
			if first.IsZero() || p.Start.Before(first) {
				first = p.Start
			}
			if p.End.After(last) {
				last = p.End
			}
			cpu += p.CPU
			peak = max(peak, p.RSSMB)
			busy += p.wall()
			setups = append(setups, p.Ready.Sub(p.Start).Seconds())
			if !traced {
				continue
			}
			res := kr.res
			root := rec.Record("kernel.process", 0, kr.spec.Params.Name, p.Start, p.End)
			rec.Import(res.Spans, root)
			coreMs = append(coreMs, float64(res.CoreNs)/1e6)
			latMs = append(latMs, p.wall()*1e3)
			v["emu.trace_s"] += float64(res.TraceNs) / 1e9
			v["emu.insts"] += float64(res.TraceLen)
			v["emu.alloc_mb"] += res.TraceAllocMB
			v["core.busy_s"] += float64(res.CoreNs) / 1e9
			v["core.sim_insts"] += float64(res.Insts)
			v["core.sim_cycles"] += float64(res.Cycles)
			v["pool.wait_s"] += p.Start.Sub(passStart).Seconds()
			v["process.alloc_mb"] += res.AllocMB
			v["process.gc_cycles"] += float64(res.GCCycles)
		}
		wall := last.Sub(first).Seconds()
		if traced {
			tracedWalls = append(tracedWalls, wall)
			tracedKernels += len(runs)
			tracedTime += wall
			utilSum += busy / wall
			return
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		rss = append(rss, peak)
	}

	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		doPass(pass, false)
		if o.trace {
			// The same kernels again, traced, so the overhead compares
			// like with like.
			doPass(pass, true)
		}
	}
	fmt.Printf("kernels: %d passes of %d kernels, one at a time; pass 0 is the pinned pass (seed %d), checked against its result digests\n",
		len(walls), kernelsPerPass, pinned.Seed)
	if !o.trace {
		v["setup_s"] = median(setups)
		v["wall_s"] = median(walls)
		v["cpu_s"] = median(cpus)
		v["peak_rss_mb"] = median(rss)
		return out, nil
	}
	v["emu.ns_per_inst"] = v["emu.trace_s"] * 1e9 / v["emu.insts"]
	v["core.cells"] = float64(len(coreMs))
	v["core.ns_per_inst"] = v["core.busy_s"] * 1e9 / v["core.sim_insts"]
	v["core.ns_per_cycle"] = v["core.busy_s"] * 1e9 / v["core.sim_cycles"]
	_, v["core.cell_p90_ms"], _, _ = tail(coreMs, 90)
	v["pool.util"] = utilSum / float64(len(tracedWalls))
	v["client.req_per_s"] = float64(tracedKernels) / tracedTime
	v["client.miss_p50_ms"] = median(latMs)
	p, val, n, _ := tail(latMs, 90)
	v["client.miss_p90_ms"] = val
	fmt.Printf("kernel process latency: p50 %.2f ms, p%.0f %.2f ms (n=%d; every kernel is a miss)\n",
		median(latMs), p, val, n)
	spans := rec.Spans()
	v["trace.spans"] = float64(len(spans))
	v["trace.overhead"] = median(tracedWalls)/median(walls) - 1
	fmt.Printf("kernels: untraced pass %.3f s, traced pass %.3f s (medians), tracing overhead %+.2f%%\n",
		median(walls), median(tracedWalls), 100*v["trace.overhead"])
	path := scratch(fmt.Sprintf("kernels-seed%d-spans.json", o.seed))
	if err := rec.WriteFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("kernels: %d spans in %s\n", len(spans), path)
	printSelfTimes(os.Stdout, spans)
	return out, nil
}
