package workload

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/isa"
)

func TestSuitesComplete(t *testing.T) {
	if len(SPECint95()) != 8 {
		t.Errorf("SPECint95 has %d workloads, want 8", len(SPECint95()))
	}
	if len(SPECint2000()) != 12 {
		t.Errorf("SPECint2000 has %d workloads, want 12", len(SPECint2000()))
	}
	if len(All()) != 20 {
		t.Errorf("All has %d workloads, want 20 (the paper's benchmark count)", len(All()))
	}
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Description == "" || w.MaxInsts <= 0 {
			t.Errorf("%s: missing metadata", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("mcf")
	if !ok || w.Suite != "SPECint2000" {
		t.Errorf("ByName(mcf) = %v, %v", w, ok)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestAllWorkloadsAssembleAndHalt(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			trace, err := w.Trace()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			n := int64(len(trace))
			if n < 30_000 {
				t.Errorf("%s: only %d dynamic instructions; too short to be representative", w.Name, n)
			}
			if n >= w.MaxInsts {
				t.Errorf("%s: hit the %d-instruction bound", w.Name, w.MaxInsts)
			}
			last := trace[len(trace)-1]
			if last.Inst.Op != isa.HALT {
				t.Errorf("%s: last committed instruction is %v, not halt", w.Name, last.Inst.Op)
			}
		})
	}
}

// mixFractions computes the dynamic fraction of each Table 1 row.
func mixFractions(t *testing.T, w *Workload) [isa.NumTable1Rows]float64 {
	t.Helper()
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var counts [isa.NumTable1Rows]int64
	for _, te := range trace {
		counts[isa.ClassOf(te.Inst.Op).Row]++
	}
	var frac [isa.NumTable1Rows]float64
	for r, c := range counts {
		frac[r] = float64(c) / float64(len(trace))
	}
	return frac
}

func TestSuiteMixResemblesTable1(t *testing.T) {
	// Paper Table 1 reports the average dynamic mix: ~18% RB arithmetic,
	// ~37% memory, ~14% conditional branches, ~26% other (TC->TC), with
	// small compare/CMOV classes. Synthetic kernels cannot match exactly;
	// require the suite-wide averages to land in generous bands around the
	// paper's numbers so the Figure-13-style conclusions carry over.
	var sum [isa.NumTable1Rows]float64
	for _, w := range All() {
		f := mixFractions(t, w)
		for r := range sum {
			sum[r] += f[r]
		}
	}
	n := float64(len(All()))
	arith := sum[isa.Row1ArithRBRB] / n
	memory := sum[isa.Row4Memory] / n
	branches := sum[isa.Row7CondBranch] / n
	other := sum[isa.Row8Other] / n
	compares := (sum[isa.Row5CMPEQ] + sum[isa.Row6Compare]) / n

	check := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("suite-average %s fraction %.3f outside [%.2f, %.2f]", name, got, lo, hi)
		}
	}
	check("RB arithmetic (Table 1: 18%)", arith, 0.10, 0.45)
	check("memory (Table 1: 37%)", memory, 0.15, 0.50)
	check("conditional branch (Table 1: 14%)", branches, 0.07, 0.30)
	check("other/TC (Table 1: 26%)", other, 0.10, 0.45)
	check("compares (Table 1: ~4.4%)", compares, 0.01, 0.20)
}

func TestEveryWorkloadHasMemoryAndBranches(t *testing.T) {
	for _, w := range All() {
		f := mixFractions(t, w)
		if f[isa.Row4Memory] == 0 {
			t.Errorf("%s: no memory instructions", w.Name)
		}
		if f[isa.Row7CondBranch] == 0 {
			t.Errorf("%s: no conditional branches", w.Name)
		}
		if f[isa.Row1ArithRBRB] == 0 {
			t.Errorf("%s: no RB-class arithmetic", w.Name)
		}
	}
}

func TestWorkloadsAreDistinct(t *testing.T) {
	// The 20 kernels must not be trivial clones: their dynamic lengths and
	// mixes should differ pairwise.
	type sig struct {
		n      int
		arith  float64
		memory float64
	}
	sigs := map[string]sig{}
	for _, w := range All() {
		trace, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		f := mixFractions(t, w)
		sigs[w.Name] = sig{n: len(trace), arith: f[isa.Row1ArithRBRB], memory: f[isa.Row4Memory]}
	}
	names := make([]string, 0, len(sigs))
	for n := range sigs {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := sigs[names[i]], sigs[names[j]]
			if a.n == b.n && a.arith == b.arith && a.memory == b.memory {
				t.Errorf("workloads %s and %s have identical signatures", names[i], names[j])
			}
		}
	}
}

func TestTracesAreCachedAndDeterministic(t *testing.T) {
	w, _ := ByName("compress")
	t1, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace entry %d differs", i)
		}
	}
}

// The SPEC lists are built on first use: initializing the package must not
// format twenty assembly sources. The test re-runs its own binary with no
// tests selected and reads the runtime's per-package init report.
func TestPackageInitIsCheap(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "GODEBUG=inittrace=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("re-running test binary: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`init repro/internal/workload @.*, (\d+) bytes, \d+ allocs`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no init trace for repro/internal/workload in:\n%s", out)
	}
	if b, _ := strconv.Atoi(string(m[1])); b >= 64<<10 {
		t.Errorf("package init allocated %d bytes, want < 64 KiB", b)
	}
}
