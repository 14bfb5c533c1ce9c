// Package workload provides the 20 synthetic benchmarks used to reproduce
// the paper's SPECint95 and SPECint2000 evaluations.
//
// The original study ran the SPEC binaries (with modified inputs) under an
// Alpha execution-driven simulator; the SPEC sources and inputs are
// proprietary, so each benchmark here is a hand-written assembly program —
// a real kernel with loops, data-dependent branches, and a genuine memory
// footprint — flavored after the corresponding SPEC program's dominant
// behavior (hashing for compress/gzip, pointer chasing for gcc/mcf/li,
// bitboards for crafty, dispatch loops for m88ksim, and so on). Absolute
// IPCs differ from the paper's; the machine-to-machine comparisons the paper
// makes are driven by dependence-chain latency and bypass-hole structure,
// which these kernels exercise the same way (DESIGN.md §3).
//
// Concurrency: the package is safe for concurrent use. Program and Trace
// memoize under a mutex (held across the assemble/emulate fill, so
// concurrent first calls for one workload coalesce rather than duplicate
// work), and every caller receives the same cached program and trace slice —
// callers treat them as immutable, which the simulator does (it only reads
// the trace). This is what lets the experiment harness and rbserve fan
// (machine, workload) cells across a worker pool without copying traces.
package workload

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// Workload is one synthetic benchmark.
type Workload struct {
	// Name is the benchmark's (SPEC-flavored) name.
	Name string
	// Suite is "SPECint95" or "SPECint2000".
	Suite string
	// Description summarizes the kernel's character.
	Description string
	// Source is the assembly text.
	Source string
	// MaxInsts bounds the functional run (the program halts well before).
	MaxInsts int64
}

// Program assembles the workload (cached).
func (w *Workload) Program() (*isa.Program, error) {
	return programCache.get(w)
}

// Trace runs the workload to completion on the functional emulator and
// returns the committed instruction stream (cached).
func (w *Workload) Trace() ([]emu.TraceEntry, error) {
	return traceCache.get(w)
}

// InstCount is the workload's dynamic instruction count (cached). Unlike
// Trace it never materializes the instruction stream: the sampler plans its
// cells over workloads whose full traces would not be worth holding.
func (w *Workload) InstCount() (int64, error) {
	return instCountCache.get(w)
}

type icCache struct {
	mu sync.Mutex
	m  map[string]int64
}

var instCountCache = &icCache{m: map[string]int64{}}

func (c *icCache) get(w *Workload) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[w.Name]; ok {
		return n, nil
	}
	p, err := programCache.get(w)
	if err != nil {
		return 0, err
	}
	e := emu.New(p)
	n, err := e.Run(w.MaxInsts, nil)
	if err != nil {
		return 0, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	c.m[w.Name] = n
	return n, nil
}

type progCache struct {
	mu sync.Mutex
	m  map[string]*isa.Program
}

var programCache = &progCache{m: map[string]*isa.Program{}}

func (c *progCache) get(w *Workload) (*isa.Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[w.Name]; ok {
		return p, nil
	}
	p, err := asm.Assemble(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	c.m[w.Name] = p
	return p, nil
}

type trCache struct {
	mu sync.Mutex
	m  map[string][]emu.TraceEntry
}

var traceCache = &trCache{m: map[string][]emu.TraceEntry{}}

func (c *trCache) get(w *Workload) ([]emu.TraceEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.m[w.Name]; ok {
		return t, nil
	}
	p, err := programCache.get(w)
	if err != nil {
		return nil, err
	}
	t, err := emu.Trace(p, w.MaxInsts)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	c.m[w.Name] = t
	return t, nil
}

// The SPEC-flavored lists are built on first use, not at package init:
// formatting their sources and input data is wasted work for processes that
// only run Generate kernels.

// SPECint95 returns the eight SPECint95-flavored workloads.
func SPECint95() []*Workload { return spec95() }

// SPECint2000 returns the twelve SPECint2000-flavored workloads.
func SPECint2000() []*Workload { return spec2000() }

// All returns all twenty workloads, SPECint95 first.
func All() []*Workload {
	s95, s2k := spec95(), spec2000()
	out := make([]*Workload, 0, len(s95)+len(s2k))
	out = append(out, s95...)
	out = append(out, s2k...)
	return out
}

// ByName finds a workload.
func ByName(name string) (*Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// Random input data is generated on the Go side and embedded as .data
// sections: the benchmarks' unpredictable values are *inputs*, as they are
// for the real SPEC programs, so the simulated code reads them from memory
// rather than computing a PRNG inline. (The paper's §5.2 observation that
// most last-arriving operands come from loads depends on this structure.)

// rng is a splitmix64-style generator for building workload input data.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// dataQuads emits a .data section of n pseudo-random quads at base, each
// value transformed by f (nil = identity).
func dataQuads(base uint64, n int, seed uint64, f func(uint64) uint64) string {
	r := &rng{s: seed}
	var b strings.Builder
	fmt.Fprintf(&b, "        .data 0x%x\n", base)
	for i := 0; i < n; i++ {
		v := r.next()
		if f != nil {
			v = f(v)
		}
		if i%4 == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("        .quad ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", int64(v))
	}
	b.WriteByte('\n')
	return b.String()
}

// dataBytes emits a .data section of n pseudo-random bytes at base, each
// masked/transformed by f (nil = identity on the low byte).
func dataBytes(base uint64, n int, seed uint64, f func(uint64) uint64) string {
	r := &rng{s: seed}
	var b strings.Builder
	fmt.Fprintf(&b, "        .data 0x%x\n", base)
	for i := 0; i < n; i++ {
		v := r.next()
		if f != nil {
			v = f(v)
		}
		if i%16 == 0 {
			if i > 0 {
				b.WriteByte('\n')
			}
			b.WriteString("        .byte ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v&0xff)
	}
	b.WriteByte('\n')
	return b.String()
}

// tapeData emits the standard 2048-quad (16KB) input tape at base.
func tapeData(base uint64, seed uint64) string {
	return dataQuads(base, 2048, seed, nil)
}

// tapeSetup emits the register initialization for the input tape: r24 holds
// the tape base and r25 the cursor.
func tapeSetup(base string) string {
	return fmt.Sprintf(`        li   r24, %s            ; input tape base
        clr  r25                 ; tape cursor
`, base)
}

// tapeNext emits a read of the next tape quad into dst (wrapping every 2048
// entries). It clobbers r23.
func tapeNext(dst string) string {
	return fmt.Sprintf(`        and  r25, #2047, r23
        s8addq r23, r24, r23
        ldq  %s, 0(r23)
        addq r25, #1, r25
`, dst)
}
