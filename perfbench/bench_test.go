package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/grid"
)

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantOK  bool
	}{
		{1000, 99, true}, // 10 samples beyond p99
		{999, 90, true},  // 9.99 beyond p99 is too few
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		pct, val, n, ok := tail(xs, 100)
		if pct != c.wantPct || ok != c.wantOK || n != c.n {
			t.Errorf("n=%d: got p%v ok=%v n=%d, want p%v ok=%v", c.n, pct, ok, n, c.wantPct, c.wantOK)
		}
		if want := quantile(xs, pct/100); val != want {
			t.Errorf("n=%d: value %v, want %v", c.n, val, want)
		}
	}
	// A cap below the supported percentile wins.
	xs := make([]float64, 1000)
	if pct, _, _, _ := tail(xs, 90); pct != 90 {
		t.Errorf("cap 90 on 1000 samples gave p%v", pct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from CPython's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// Serve reports the median over windows of each window's mean block time
// and CPU per block; a window no block ended in is skipped.
func TestWindowMedians(t *testing.T) {
	wins := []window{
		{blocks: []float64{0.2, 0.4}, cpu: 0.6},   // mean 0.3, 0.3 CPU per block
		{blocks: []float64{0.3, 0.5}, cpu: 1.0},   // mean 0.4, 0.5
		{},                                        // skipped
		{blocks: []float64{3.0, 0.2}, cpu: 0.8},   // a stalled window: mean 1.6, 0.4
		{blocks: []float64{0.35, 0.35}, cpu: 0.7}, // mean 0.35, 0.35
	}
	wall, cpu, n := windowMedians(wins)
	if math.Abs(wall-0.375) > 1e-12 || math.Abs(cpu-0.375) > 1e-12 || n != 8 {
		t.Errorf("windowMedians = %v, %v, %d; want 0.375, 0.375, 8", wall, cpu, n)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	const ms = 1_000_000
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 30 * ms, End: 60 * ms},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 35 * ms, End: 45 * ms},
	}
	got := map[string]LayerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// The children cover [10,60] and [90,100] of the parent: 60 ms.
	if p := got["parent"]; p.Count != 1 || math.Abs(p.Self-0.040) > 1e-9 || math.Abs(p.Total-0.100) > 1e-9 {
		t.Errorf("parent = %+v, want self 0.040 of 0.100", p)
	}
	// Children: 30+30+30 ms total, minus the grandchild's 10 ms.
	if c := got["child"]; c.Count != 3 || math.Abs(c.Total-0.090) > 1e-9 || math.Abs(c.Self-0.080) > 1e-9 {
		t.Errorf("child = %+v, want total 0.090 self 0.080", c)
	}
	if g := got["grandchild"]; math.Abs(g.Self-0.010) > 1e-9 {
		t.Errorf("grandchild = %+v, want self 0.010", g)
	}
}

func TestRecorderImportRenumbers(t *testing.T) {
	r := newRecorder()
	root := r.Begin("root", 0, "r")
	r.End(root)
	r.Import([]Span{{ID: 1, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}}, root)
	s := r.Spans()
	if len(s) != 3 || s[1].ID != 2 || s[1].Parent != root || s[2].ID != 3 || s[2].Parent != 2 {
		t.Fatalf("imported spans = %+v", s)
	}
	var nilRec *Recorder
	if id := nilRec.Begin("x", 0, ""); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	nilRec.End(0)
}

func TestKernelSetIsAPureFunctionOfSeed(t *testing.T) {
	a, b := kernelSet(7, 3), kernelSet(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("kernelSet(7, 3) differs between calls")
	}
	if reflect.DeepEqual(a, kernelSet(8, 3)) || reflect.DeepEqual(a, kernelSet(7, 4)) {
		t.Fatal("kernelSet ignores its seed or pass")
	}
	// Every pass keeps the strata: the same footprints and machines, in
	// another order.
	var fps []int
	machines := map[string]int{}
	for _, k := range a {
		fps = append(fps, k.Params.FootprintBytes)
		machines[fmt.Sprintf("%s/%d", k.Machine, k.Width)]++
	}
	sort.Ints(fps)
	want := append([]int(nil), kFootprints...)
	sort.Ints(want)
	if !reflect.DeepEqual(fps, want) {
		t.Errorf("footprints %v, want %v", fps, want)
	}
	if len(machines) != len(kMachines)*len(kWidths) {
		t.Errorf("machine/width combinations %v", machines)
	}
}

func TestKernelChecks(t *testing.T) {
	ok := kernelResult{Insts: 100, TraceLen: 100, Cycles: 50}
	if err := ok.check(4); err != nil {
		t.Fatalf("good kernel rejected: %v", err)
	}
	short := kernelResult{Insts: 99, TraceLen: 100, Cycles: 50}
	if short.check(4) == nil {
		t.Error("a kernel that retired 99 of 100 entries passed")
	}
	fast := kernelResult{Insts: 100, TraceLen: 100, Cycles: 20}
	if fast.check(4) == nil {
		t.Error("IPC 5 on a 4-wide machine passed")
	}
}

// Every run checks pinned result digests, whatever its seed: pass 0 is the
// pinned pass, and a changed digest fails it.
func TestPinnedDigestsCheckedOnEverySeed(t *testing.T) {
	kg, err := loadKernelsGolden("golden/kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{kg.Seed, 7, 101} {
		specs, want := kg.passSpecs(seed, 0)
		if want == nil || !reflect.DeepEqual(specs, kernelSet(kg.Seed, kg.Pass)) {
			t.Fatalf("seed %d: pass 0 is not the pinned pass", seed)
		}
		if _, want := kg.passSpecs(seed, 1); want != nil {
			t.Fatalf("seed %d: pass 1 claims pinned digests", seed)
		}
	}
	specs, want := kg.passSpecs(7, 0)
	res, err := runKernel(specs[0], false)
	if err != nil {
		t.Fatal(err)
	}
	kr := kernelRun{spec: specs[0], res: *res}
	if err := kr.verify(want, 0); err != nil {
		t.Fatalf("kernel %s on seed 7: %v", specs[0].Params.Name, err)
	}
	corrupt := *kg
	corrupt.Digests = append([]string(nil), kg.Digests...)
	corrupt.Digests[0] = digest([]byte("corrupted"))
	if _, want := corrupt.passSpecs(7, 0); kr.verify(want, 0) == nil {
		t.Fatal("a corrupted pinned digest passed on seed 7")
	}
}

func TestServeSequenceIsAPureFunctionOfSeed(t *testing.T) {
	const n = 400
	a := serveSequence(11, 0, 2, n)
	if !reflect.DeepEqual(a, serveSequence(11, 0, 2, n)) {
		t.Fatal("serveSequence(11, 0) differs between calls")
	}
	if reflect.DeepEqual(a, serveSequence(12, 0, 2, n)) || reflect.DeepEqual(a, serveSequence(11, 1, 2, n)) {
		t.Fatal("serveSequence ignores its seed or client")
	}
	for i := 0; i+4 <= n; i += 4 {
		hits := 0
		for _, r := range a[i : i+4] {
			if r.Class == "hit" {
				hits++
			}
		}
		if hits != 2 {
			t.Fatalf("block at %d has %d hits, want 2", i, hits)
		}
	}
}

func TestServeMissesAreFreshAndValid(t *testing.T) {
	documented := map[string]bool{}
	for i := range hitGets {
		documented[hitGet(i).Path] = true
	}
	for _, clients := range []int{1, 2, 4} {
		seen := map[string]bool{}
		sent := map[string]bool{}
		for client := 0; client < clients; client++ {
			for _, r := range serveSequence(3, client, clients, serveMaxRequests/clients) {
				if r.Class == "hit" {
					if r.Cells > 0 && !sent[r.Spec] {
						t.Fatalf("client %d repeats a spec it never sent: %s", client, r.Spec)
					}
					if r.Cells == 0 && !documented[r.Path] {
						t.Fatalf("client %d sends a hit the warm-up never sent: %s", client, r.Path)
					}
					continue
				}
				sent[r.Spec] = true
				var spec grid.BatchSpec
				if err := json.Unmarshal([]byte(r.Body), &spec); err != nil {
					t.Fatal(err)
				}
				cells, err := spec.Cells()
				if err != nil {
					t.Fatalf("miss spec %s: %v", r.Body, err)
				}
				if len(cells) != r.Cells {
					t.Fatalf("miss spec %s expands to %d cells, want %d", r.Body, len(cells), r.Cells)
				}
				for _, c := range cells {
					if seen[c.Key()] {
						t.Fatalf("cell %s appears in two misses", c.Key())
					}
					seen[c.Key()] = true
				}
			}
		}
	}
}

// Each failure kind counts as exactly one failed operation.
func TestFailuresCountOncePerOperation(t *testing.T) {
	var g golden
	g.Artifacts = []goldenArtifact{{Name: "table2", SHA256: digest([]byte("right\n"))}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("mode") {
		case "429":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "wrong":
			fmt.Fprint(w, "wrong\n")
		default:
			fmt.Fprint(w, "right\n")
		}
	}))
	defer srv.Close()
	// A listener that is closed at once gives a transport error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	chk := &checker{g: &g, first: map[string][]byte{}}
	out := newOutcome()
	hc := srv.Client()
	for _, c := range []struct {
		base, mode, want string
	}{
		{srv.URL, "ok", ""},
		{srv.URL, "429", "429"},
		{dead, "ok", "transport"},
		{srv.URL, "wrong", "mismatch"},
	} {
		req := request{Class: "hit", Method: http.MethodGet, Path: "/v1/experiment/table2?mode=" + c.mode, Artifact: "table2"}
		status, body, err := do(hc, c.base, req, "t")
		v := chk.verdict(req, status, body, err)
		if v != c.want {
			t.Errorf("%s %s: verdict %q, want %q", c.base, c.mode, v, c.want)
		}
		out.attempted++
		if v != "" {
			out.fail(v == "mismatch")
		}
	}
	if out.attempted != 4 || out.failed != 3 || out.mismatches != 1 {
		t.Fatalf("attempted %d failed %d mismatches %d, want 4, 3, 1", out.attempted, out.failed, out.mismatches)
	}

	// A repeated batch must return the first response's bytes.
	batch := request{Class: "hit", Spec: "s", Cells: 1}
	if v := chk.verdict(batch, 200, []byte("batch: 1 cells\nk 1.0\n"), nil); v != "" {
		t.Fatalf("first batch: %q", v)
	}
	if v := chk.verdict(batch, 200, []byte("batch: 1 cells\nk 1.1\n"), nil); v != "mismatch" {
		t.Fatalf("changed repeat: %q, want mismatch", v)
	}
}

func TestGoldenCheckCountsCorruptArtifacts(t *testing.T) {
	texts := []string{"Figure A\nbody a\n\n", "Table B\nbody b\n\n", "Figure C\nbody c\n\n"}
	g := &golden{}
	for i, s := range texts {
		h, _, _ := strings.Cut(s, "\n")
		g.Artifacts = append(g.Artifacts, goldenArtifact{Name: fmt.Sprint(i), Heading: h, SHA256: digest([]byte(s))})
	}
	all := []byte(strings.Join(texts, ""))
	if bad := g.check(all); bad != 0 {
		t.Fatalf("pristine output: %d bad", bad)
	}
	g.Artifacts[1].SHA256 = digest([]byte("corrupted"))
	if bad := g.check(all); bad != 1 {
		t.Fatalf("one corrupted digest: %d bad, want 1", bad)
	}
	if bad := g.check([]byte(texts[0])); bad != 2 {
		t.Fatalf("truncated output: %d bad, want 2", bad)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	ok := sideOutcome{Correct: true, Attempted: 100}
	if c := compareRuns(parent, scale(0.8), true, 0.1, ok, ok); c.Verdict != "better" || c.Wins != 10 {
		t.Errorf("20%% faster: %+v", c)
	}
	if c := compareRuns(parent, scale(1.3), true, 0.1, ok, ok); c.Verdict != "worse" {
		t.Errorf("30%% slower: %+v", c)
	}
	if c := compareRuns(parent, scale(1.02), true, 0.1, ok, ok); c.Verdict != "within bound" {
		t.Errorf("2%% slower: %+v", c)
	}
	if c := compareRuns(parent[:9], scale(0.8)[:9], true, 0.1, ok, ok); c.Verdict == "better" {
		t.Errorf("better on 9 pairs: %+v", c)
	}
	if c := compareRuns(parent, scale(0.8), false, 0.1, ok, ok); c.Verdict != "worse" {
		t.Errorf("20%% lower on a higher-is-better metric: %+v", c)
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if c := compareRuns(noisy, noisy, true, 0.1, ok, ok); c.Verdict != "unresolved" {
		t.Errorf("spread beyond the bound: %+v", c)
	}
	// A faster change with wrong outputs, or with more failed operations
	// than the parent, is never better.
	wrong := sideOutcome{Correct: false, Attempted: 100, Failed: 1}
	if c := compareRuns(parent, scale(0.8), true, 0.1, ok, wrong); c.Verdict != "failed" {
		t.Errorf("20%% faster with a wrong output: %+v", c)
	}
	refused := sideOutcome{Correct: true, Attempted: 100, Failed: 2}
	if c := compareRuns(parent, scale(0.8), true, 0.1, ok, refused); c.Verdict != "failed" {
		t.Errorf("20%% faster with more failures: %+v", c)
	}
	if c := compareRuns(parent, scale(0.8), true, 0.1, refused, refused); c.Verdict != "better" {
		t.Errorf("20%% faster with the parent's failures: %+v", c)
	}
}

// The metric sets perfbench prints are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, perfbench %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, perfbench %v", bj.PerLayer, perLayer)
	}
	// compare takes its workloads from the same file.
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"kernels", "serve"}; !reflect.DeepEqual(names, want) {
		t.Errorf("compare reads workloads %v, want %v", names, want)
	}
}
