package main

// The serve workload: an rbserve coordinator and two `-role worker
// -parallel 1` workers as child processes, driven by a closed loop of
// nproc clients. Each client waits for its reply before sending the next
// request, the way a sweep script does. Requests come in two classes:
//
//   - hit: one of the read requests the repository documents, which the
//     warm-up already sent once, or a repeat of a batch spec this client
//     sent earlier (response cache, shared cell cache, rendering, HTTP);
//   - miss: a POST /v1/batch of a fresh two-cell sweep (routing, the HTTP
//     cell RPC, and core on a worker).
//
// The repository records no rbserve traffic, so the mix is an assumption:
// half hits and half misses, and every hit kind equally likely.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/rcache"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	// serveSetups is how many times a run brings the grid up; the median
	// is the reported set-up time and the last one serves the timed phase.
	serveSetups = 3
	// serveBlock is the unit of timed work: serveSequence deals requests
	// in blocks of two hits and two misses.
	serveBlock = 4
	// serveWindow splits the timed phase. A window's mean block time
	// covers every workload pair a client cycles through, so it does not
	// depend on how the seed paired the workloads; the median over windows
	// keeps a host stall that spans one window from moving the result.
	serveWindow = 5 * time.Second
	// serveMaxRequests caps the requests of all clients together so that
	// every miss stays fresh however fast the host is
	// (TestServeMissesAreFreshAndValid).
	serveMaxRequests = 2400
	serveWorkers     = 2
)

// hitGets are the read requests the repository documents (README.md's
// curl examples, EXPERIMENTS.md and scripts/ci.sh). The warm-up sends each
// once. Artifact text must match the golden; any other body must repeat
// the warm-up's bytes.
var hitGets = []request{
	{Path: "/v1/experiment/fig9?format=text", Artifact: "fig9"},
	{Path: "/v1/batch?artifact=fig9&format=text", Artifact: "fig9"},
	{Path: "/v1/experiment/fig9"},
	{Path: "/v1/experiment/ipc?width=2&suite=SPECint95"},
	{Path: "/v1/sim?workload=compress&machine=rb-full&width=8"},
	{Path: "/v1/sim?workload=mcf&machine=ideal&no-bypass-levels=1,2&check=true"},
}

// hitGet is hitGets[i] as a request.
func hitGet(i int) request {
	r := hitGets[i]
	r.Class, r.Method = "hit", http.MethodGet
	if r.Artifact == "" {
		r.Spec = r.Path
	}
	return r
}

// Miss sweep axes. Windows leave out the Table-2 default (128), so no miss
// cell is one the warm-up or a figure already computed.
var (
	missMachines = []string{"baseline", "rb-limited", "rb-full", "ideal", "staggered"}
	missWidths   = []int{4, 8}
	missWindows  = []int{32, 48, 64, 80, 96, 112, 144, 160, 192, 224, 256}
	missNoBypass = []string{"1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"}
)

// request is one client request, fixed before the run starts.
type request struct {
	Class    string // "hit" or "miss"
	Method   string
	Path     string // with query
	Body     string
	Artifact string // artifact hits: the artifact name
	Spec     string // identity for repeats: a batch spec, or the path of a non-artifact GET
	Cells    int    // batch requests: cells the response must hold
}

// batchSpec is a miss sweep in both wire forms.
type batchSpec struct {
	spec grid.BatchSpec
	key  string
}

func (b batchSpec) post() request {
	body, _ := json.Marshal(b.spec) // a BatchSpec always encodes
	return request{Class: "miss", Method: http.MethodPost, Path: "/v1/batch?format=text",
		Body: string(body), Spec: b.key, Cells: 2}
}

func (b batchSpec) get() request {
	q := url.Values{"format": {"text"}, "workloads": {strings.Join(b.spec.Workloads, ",")}}
	if len(b.spec.Machines) > 0 {
		q.Set("machines", strings.Join(b.spec.Machines, ","))
		q.Set("windows", strconv.Itoa(b.spec.Windows[0]))
	}
	if len(b.spec.NoBypassLevels) > 0 {
		q.Set("no-bypass-levels", b.spec.NoBypassLevels[0])
	}
	q.Set("widths", strconv.Itoa(b.spec.Widths[0]))
	return request{Class: "hit", Method: http.MethodGet, Path: "/v1/batch?" + q.Encode(), Spec: b.key, Cells: 2}
}

// missSpace enumerates fresh sweeps. Client c of n takes index nk+c for
// its k-th window miss, so the clients never collide; within a client, the Latin
// arrangement below never repeats a (config, workload pair) until the
// space is exhausted.
type missSpace struct {
	pairs   [][2]string // seeded pairing of the 20 workloads
	configs []batchSpec // machine x width x window, seeded order
	nobyp   []batchSpec // no-bypass variant x width, seeded order
}

func newMissSpace(seed uint64) *missSpace {
	r := &splitmix{s: seed ^ 0x5e7e}
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	names = permuted(r, names)
	ms := &missSpace{}
	for i := 0; i+1 < len(names); i += 2 {
		ms.pairs = append(ms.pairs, [2]string{names[i], names[i+1]})
	}
	for _, m := range missMachines {
		for _, w := range missWidths {
			for _, win := range missWindows {
				ms.configs = append(ms.configs, batchSpec{spec: grid.BatchSpec{
					Machines: []string{m}, Widths: []int{w}, Windows: []int{win}}})
			}
		}
	}
	for _, v := range missNoBypass {
		for _, w := range missWidths {
			ms.nobyp = append(ms.nobyp, batchSpec{spec: grid.BatchSpec{
				NoBypassLevels: []string{v}, Widths: []int{w}}})
		}
	}
	ms.configs = permuted(r, ms.configs)
	ms.nobyp = permuted(r, ms.nobyp)
	return ms
}

// pick returns sweep idx of a space: workload pair idx%P in round idx/P,
// with the round's configs spread across the space.
func (ms *missSpace) pick(space []batchSpec, idx, stride int) batchSpec {
	p := idx % len(ms.pairs)
	round := idx / len(ms.pairs)
	b := space[(round+stride*p)%len(space)]
	b.spec.Workloads = []string{ms.pairs[p][0], ms.pairs[p][1]}
	key, _ := json.Marshal(b.spec)
	b.key = string(key)
	return b
}

// serveSequence is the request sequence of client c of clients for seed:
// blocks of four with two hits and two misses in seeded order; every tenth
// miss removes bypass levels instead of resizing the window. A hit is one
// of hitGets or a repeat of one of the client's earlier misses, each kind
// equally likely. Misses stay fresh while the clients together send at
// most serveMaxRequests.
func serveSequence(seed uint64, client, clients, n int) []request {
	ms := newMissSpace(seed)
	r := &splitmix{s: seed*0x2545f4914f6cdd1d + uint64(client+1)}
	var (
		seq     []request
		fresh   []batchSpec
		windowK int
		nobypK  int
	)
	for len(seq) < n {
		for _, class := range permuted(r, []string{"hit", "hit", "miss", "miss"}) {
			if len(seq) == n {
				break
			}
			if class == "miss" {
				var b batchSpec
				if (windowK+nobypK)%10 == 9 {
					b = ms.pick(ms.nobyp, clients*nobypK+client, 1)
					nobypK++
				} else {
					b = ms.pick(ms.configs, clients*windowK+client, 7)
					windowK++
				}
				fresh = append(fresh, b)
				seq = append(seq, b.post())
				continue
			}
			k := r.intn(len(hitGets) + 1)
			if k == len(hitGets) && len(fresh) > 0 {
				seq = append(seq, fresh[r.intn(len(fresh))].get())
				continue
			}
			seq = append(seq, hitGet(k%len(hitGets)))
		}
	}
	return seq
}

// checker judges responses: artifact bodies against the golden, batch
// bodies for shape, and repeats against the first response.
type checker struct {
	g     *golden
	mu    sync.Mutex
	first map[string][]byte // spec -> first good body
}

// verdict classifies one response; "" means it passed.
func (c *checker) verdict(req request, status int, body []byte, err error) string {
	switch {
	case err != nil:
		return "transport"
	case status == http.StatusTooManyRequests:
		return "429"
	case status < 200 || status > 299:
		return "status"
	}
	if req.Artifact != "" {
		if digest(body) != c.g.artifact(req.Artifact).SHA256 {
			return "mismatch"
		}
		return ""
	}
	if req.Cells > 0 {
		want := fmt.Sprintf("batch: %d cells\n", req.Cells)
		if !bytes.HasPrefix(body, []byte(want)) || bytes.Count(body, []byte("\n")) != req.Cells+1 {
			return "mismatch"
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[req.Spec]; ok {
		if !bytes.Equal(prev, body) {
			return "mismatch"
		}
		return ""
	}
	c.first[req.Spec] = append([]byte(nil), body...)
	return ""
}

// cluster is one running coordinator and its workers.
type cluster struct {
	dir     string
	procs   []*exec.Cmd // workers first, coordinator last
	logs    []*os.File
	coord   string
	workers []string
}

// start launches one rbserve process. gomaxprocs > 0 caps the Go threads
// it runs code on.
func (c *cluster) start(name string, gomaxprocs int, args ...string) (string, error) {
	addrFile := filepath.Join(c.dir, name+".addr")
	os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(c.dir, name+".log"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command(bin("rbserve"), append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if gomaxprocs > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive perfbench
	if err := cmd.Start(); err != nil {
		logf.Close()
		return "", err
	}
	c.procs = append(c.procs, cmd)
	c.logs = append(c.logs, logf)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			return "http://" + strings.TrimSpace(string(b)), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "", fmt.Errorf("%s did not write its address", name)
}

// startCluster launches the workers, then the coordinator, and waits until
// the coordinator sees both workers alive.
func startCluster(o *options, dir string) (*cluster, error) {
	c := &cluster{dir: dir}
	for i := 0; i < serveWorkers; i++ {
		// A worker simulates one cell at a time; one Go thread for it
		// keeps the grid's runnable threads near nproc, so the run
		// measures the grid rather than the host's scheduler.
		u, err := c.start(fmt.Sprintf("worker%d", i), 1, "-role", "worker", "-parallel", "1")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, u)
	}
	u, err := c.start("coordinator", 0, "-role", "coordinator", "-parallel", strconv.Itoa(o.nproc),
		"-grid-inflight", strconv.Itoa(o.nproc), "-workers", strings.Join(c.workers, ","))
	if err != nil {
		c.stop()
		return nil, err
	}
	c.coord = u
	snap, err := scrape(c.coord)
	if err != nil {
		c.stop()
		return nil, err
	}
	alive := 0
	for _, w := range snap.Grid.Workers {
		if w.Health == "alive" {
			alive++
		}
	}
	if alive != serveWorkers {
		c.stop()
		return nil, fmt.Errorf("coordinator sees %d live workers, want %d", alive, serveWorkers)
	}
	return c, nil
}

// stop terminates every process, waits for each, and returns their
// summed peak RSS in MiB.
func (c *cluster) stop() float64 {
	var rss float64
	for i := len(c.procs) - 1; i >= 0; i-- {
		cmd := c.procs[i]
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			select {
			case <-done:
			case <-time.After(40 * time.Second):
				cmd.Process.Kill()
			}
		}()
		cmd.Wait()
		close(done)
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss += float64(ru.Maxrss) / 1024
		}
		c.logs[i].Close()
	}
	c.procs, c.logs = nil, nil
	return rss
}

// cpu is the processes' summed user+sys CPU seconds so far.
func (c *cluster) cpu() (float64, error) {
	t := 0.0
	for _, cmd := range c.procs {
		s, err := procCPU(cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		t += s
	}
	return t, nil
}

func scrape(base string) (*server.MetricsSnapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", base, err)
	}
	return &s, nil
}

// do sends one request and reads the whole body.
func do(hc *http.Client, base string, req request, id string) (int, []byte, error) {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequest(req.Method, base+req.Path, body)
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("X-Request-Id", id)
	if req.Body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// warmUp touches every workload's trace on every worker (one cell each,
// sent straight to the worker) and sends each of hitGets once through the
// coordinator. A failed cell ends the set-up; a failed GET counts as a
// failed operation.
func warmUp(c *cluster, chk *checker, out *outcome) error {
	cfg, err := machine.ByName("rb-full", 8)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, base := range c.workers {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			for _, w := range workload.All() {
				body, _ := json.Marshal(grid.CellRequest{Config: cfg, Workload: w.Name})
				status, b, err := do(hc, base, request{Method: http.MethodPost, Path: "/v1/cell", Body: string(body)}, "warm-"+w.Name)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, b)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up cell %s on %s: %w", w.Name, base, err)
					return
				}
			}
		}(i, base)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range hitGets {
		req := hitGet(i)
		status, b, err := do(hc, c.coord, req, fmt.Sprintf("warm-%d", i))
		out.attempted++
		if v := chk.verdict(req, status, b, err); v != "" {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up %s: %s (status %d, err %v)\n", req.Path, v, status, err)
			out.fail(v == "mismatch")
		}
	}
	return nil
}

// sample is one timed request.
type sample struct {
	class string
	ms    float64
	fail  string
}

// block is one client's finished block of serveBlock requests.
type block struct {
	end time.Time
	dur float64 // seconds
}

// window is one serveWindow of the timed phase: the blocks that ended in
// it and the CPU the grid's processes used over it.
type window struct {
	blocks []float64
	cpu    float64
}

// drive runs the closed loop for o.seconds: one goroutine per client, each
// sending its sequence and waiting for every reply. A client starts a new
// block of serveBlock requests only before the deadline, so every block it
// starts it finishes. The timed phase is cut into whole serveWindows (one,
// if it is shorter); drive reads the grid's CPU at each window edge and
// returns every window with the blocks that ended in it.
func drive(o *options, c *cluster, chk *checker, rec *Recorder) (samples []sample, wins []window, wall time.Duration, err error) {
	results := make([][]sample, o.nproc)
	blocks := make([][]block, o.nproc)
	phase := time.Duration(o.seconds * float64(time.Second))
	nwin, winLen := int(phase/serveWindow), serveWindow
	if nwin < 1 {
		nwin, winLen = 1, phase
	}
	cpuAt := make([]float64, nwin+1)
	if cpuAt[0], err = c.cpu(); err != nil {
		return nil, nil, 0, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(phase)
	for cl := 0; cl < o.nproc; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 2 * time.Minute}
			var blockStart time.Time
			for i, req := range serveSequence(o.seed, cl, o.nproc, serveMaxRequests/o.nproc) {
				if i%serveBlock == 0 {
					if !time.Now().Before(deadline) {
						break
					}
					blockStart = time.Now()
				}
				id := fmt.Sprintf("c%d-%d", cl, i)
				sid := rec.Begin("client."+req.Class, 0, id)
				t0 := time.Now()
				status, body, err := do(hc, c.coord, req, id)
				d := time.Since(t0)
				rec.End(sid)
				results[cl] = append(results[cl], sample{
					class: req.Class, ms: float64(d) / 1e6, fail: chk.verdict(req, status, body, err)})
				if i%serveBlock == serveBlock-1 {
					now := time.Now()
					blocks[cl] = append(blocks[cl], block{end: now, dur: now.Sub(blockStart).Seconds()})
				}
			}
			hc.CloseIdleConnections()
		}(cl)
	}
	for k := 1; k <= nwin && err == nil; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * winLen)))
		cpuAt[k], err = c.cpu()
	}
	wg.Wait()
	wall = time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	wins = make([]window, nwin)
	for k := range wins {
		wins[k].cpu = cpuAt[k+1] - cpuAt[k]
	}
	for cl := range results {
		samples = append(samples, results[cl]...)
		for _, b := range blocks[cl] {
			// Blocks that end after the last window edge ran past the
			// deadline and fall outside every window.
			if k := int(b.end.Sub(start) / winLen); k < nwin {
				wins[k].blocks = append(wins[k].blocks, b.dur)
			}
		}
	}
	return samples, wins, wall, nil
}

// windowMedians returns the median over windows of the mean block time
// and of the grid's CPU per block, and how many blocks the windows hold.
// Windows in which no block ended are skipped.
func windowMedians(wins []window) (wall, cpu float64, nblocks int) {
	var walls, cpus []float64
	for _, w := range wins {
		if len(w.blocks) == 0 {
			continue
		}
		nblocks += len(w.blocks)
		walls = append(walls, mean(w.blocks))
		cpus = append(cpus, w.cpu/float64(len(w.blocks)))
	}
	return median(walls), median(cpus), nblocks
}

func runServe(o *options) (*outcome, error) {
	g, err := loadGolden(figuresGoldenPath)
	if err != nil {
		return nil, err
	}
	dir := scratch("serve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := newOutcome()
	setups := serveSetups
	var rec *Recorder
	if o.trace {
		setups = 1
		rec = newRecorder()
	}

	var setupTimes []float64
	var c *cluster
	var chk *checker // the last set-up's, which holds the warm-up bodies
	for i := 0; i < setups; i++ {
		chk = &checker{g: g, first: map[string][]byte{}}
		t0 := time.Now()
		if c, err = startCluster(o, dir); err != nil {
			return nil, err
		}
		if err := warmUp(c, chk, out); err != nil {
			c.stop()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			c.stop()
		}
	}

	var before []*server.MetricsSnapshot
	if o.trace {
		if before, err = scrapeAll(c); err != nil {
			c.stop()
			return nil, err
		}
	}
	samples, wins, wall, err := drive(o, c, chk, rec)
	if err != nil {
		c.stop()
		return nil, err
	}
	var after []*server.MetricsSnapshot
	if o.trace {
		if after, err = scrapeAll(c); err != nil {
			c.stop()
			return nil, err
		}
	}
	rss := c.stop()
	blockWall, blockCPU, nblocks := windowMedians(wins)
	if nblocks == 0 {
		return nil, fmt.Errorf("no client finished a block of requests in the timed phase")
	}

	lat := map[string][]float64{}
	kinds := map[string]int{}
	for _, s := range samples {
		out.attempted++
		if s.fail != "" {
			kinds[s.fail]++
			out.fail(s.fail == "mismatch")
			continue
		}
		lat[s.class] = append(lat[s.class], s.ms)
	}
	v := out.values
	reqPerS := float64(len(samples)) / wall.Seconds()
	fmt.Printf("serve: %d clients (closed loop), %d requests over %.1f s, %d blocks of %d in %d windows, %d set-ups; failures by kind: %v\n",
		o.nproc, len(samples), wall.Seconds(), nblocks, serveBlock, len(wins), len(setupTimes), kinds)
	fmt.Printf("%-28s %14.6g %s\n", "req_per_s", reqPerS, "1/s")
	for _, class := range []string{"hit", "miss"} {
		xs := lat[class]
		p, val, n, ok := tail(xs, 90)
		note := ""
		if !ok || p < 90 {
			note = fmt.Sprintf(" (p90 unsupported; highest supported is p%.0f)", p)
		}
		fmt.Printf("%-28s %14.6g ms  (n=%d)\n", class+"_p50_ms", median(xs), n)
		fmt.Printf("%-28s %14.6g ms  (n=%d)%s\n", class+"_p90_ms", val, n, note)
		if o.trace {
			v["client."+class+"_p50_ms"] = median(xs)
			v["client."+class+"_p90_ms"] = val
		}
	}
	if !o.trace {
		v["setup_s"] = median(setupTimes)
		v["wall_s"] = blockWall
		v["cpu_s"] = blockCPU
		v["peak_rss_mb"] = rss
		return out, nil
	}
	v["client.req_per_s"] = reqPerS
	serverDeltas(v, before, after)
	spans := rec.Spans()
	v["trace.spans"] = float64(len(spans))
	v["trace.overhead"] = rec.Cost().Seconds() / wall.Seconds()
	path := scratch(fmt.Sprintf("serve-seed%d-spans.json", o.seed))
	if err := rec.WriteFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("serve: %d spans in %s; recording took %+.4f%% of the timed phase\n",
		len(spans), path, 100*v["trace.overhead"])
	printSelfTimes(os.Stdout, spans)
	return out, nil
}

// scrapeAll reads /metrics from the coordinator, then each worker.
func scrapeAll(c *cluster) ([]*server.MetricsSnapshot, error) {
	var out []*server.MetricsSnapshot
	for _, base := range append([]string{c.coord}, c.workers...) {
		s, err := scrape(base)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// serverDeltas turns /metrics snapshots taken around the timed phase into
// layer values: counter deltas, and the latency sketches as they stand at
// the end (sketches cannot be differenced).
func serverDeltas(v map[string]float64, before, after []*server.MetricsSnapshot) {
	d := func(a, b int64) float64 { return float64(b - a) }
	cb, ca := before[0], after[0]
	for i := range after {
		v["server.status_429"] += d(before[i].Rejected, after[i].Rejected)
		v["server.status_5xx"] += d(before[i].Status5xx, after[i].Status5xx)
	}
	v["server.requests"] = d(cb.Requests, ca.Requests)
	v["server.resp_hits"] = d(cb.ResponseCache.Hits, ca.ResponseCache.Hits)
	v["server.resp_misses"] = d(cb.ResponseCache.Misses, ca.ResponseCache.Misses)
	v["server.coord_p50_ms"] = ca.Latency.P50Ms
	for i := range ca.Grid.Workers {
		wa := ca.Grid.Workers[i]
		for _, wb := range cb.Grid.Workers {
			if wb.Name == wa.Name {
				v["grid.routed"] += d(wb.Routed, wa.Routed)
				v["grid.failed"] += d(wb.Failed, wa.Failed)
				v["grid.shed"] += d(wb.Shed, wa.Shed)
			}
		}
	}
	v["grid.hedges"] = d(cb.Grid.Hedges, ca.Grid.Hedges)
	v["grid.hedge_wins"] = d(cb.Grid.HedgeWins, ca.Grid.HedgeWins)
	v["grid.shared_hits"] = d(cb.Grid.SharedCache.Hits, ca.Grid.SharedCache.Hits)
	v["grid.shared_misses"] = d(cb.Grid.SharedCache.Misses, ca.Grid.SharedCache.Misses)
	// rcache is every cache of the grid: the coordinator's response cache
	// and shared cell tier, and each worker's cell cache.
	caches := func(s *server.MetricsSnapshot, worker bool) []rcache.Stats {
		if worker {
			return []rcache.Stats{s.CellCache}
		}
		return []rcache.Stats{s.ResponseCache, s.Grid.SharedCache}
	}
	for i := range after {
		b, a := caches(before[i], i > 0), caches(after[i], i > 0)
		for j := range a {
			v["rcache.hits"] += d(b[j].Hits, a[j].Hits)
			v["rcache.joins"] += d(b[j].Joins, a[j].Joins)
			v["rcache.misses"] += d(b[j].Misses, a[j].Misses)
		}
	}
	if n := v["rcache.hits"] + v["rcache.joins"] + v["rcache.misses"]; n > 0 {
		v["rcache.hit_ratio"] = v["rcache.hits"] / n
	}
	n := float64(len(after) - 1)
	for i := 1; i < len(after); i++ {
		v["server.worker_cells"] += d(before[i].Pool.Completed, after[i].Pool.Completed)
		v["server.worker_cache_hits"] += d(before[i].CellCache.Hits, after[i].CellCache.Hits)
		v["server.worker_cell_p50_ms"] += after[i].Latency.P50Ms / n
		v["server.worker_cell_p90_ms"] += after[i].Latency.P90Ms / n
	}
}
