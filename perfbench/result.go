package main

import (
	"encoding/json"
	"fmt"
	"io"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports with tracing off. The
// names, units and order match BENCHMARK.json (pinned by a test).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics every workload reports with tracing on; a layer
// a workload does not reach reports 0.
var perLayer = []metricDef{
	{"emu.trace_s", "s"},
	{"emu.insts", "count"},
	{"emu.ns_per_inst", "ns"},
	{"emu.alloc_mb", "MiB"},
	{"core.cells", "count"},
	{"core.busy_s", "s"},
	{"core.sim_insts", "count"},
	{"core.sim_cycles", "count"},
	{"core.ns_per_inst", "ns"},
	{"core.ns_per_cycle", "ns"},
	{"core.cell_p90_ms", "ms"},
	{"pool.wait_s", "s"},
	{"pool.util", "ratio"},
	{"rcache.hits", "count"},
	{"rcache.misses", "count"},
	{"rcache.joins", "count"},
	{"rcache.hit_ratio", "ratio"},
	{"server.requests", "count"},
	{"server.status_429", "count"},
	{"server.status_5xx", "count"},
	{"server.resp_hits", "count"},
	{"server.resp_misses", "count"},
	{"server.coord_p50_ms", "ms"},
	{"grid.routed", "count"},
	{"grid.failed", "count"},
	{"grid.shed", "count"},
	{"grid.hedges", "count"},
	{"grid.hedge_wins", "count"},
	{"grid.shared_hits", "count"},
	{"grid.shared_misses", "count"},
	{"server.worker_cells", "count"},
	{"server.worker_cell_p50_ms", "ms"},
	{"server.worker_cell_p90_ms", "ms"},
	{"server.worker_cache_hits", "count"},
	{"process.alloc_mb", "MiB"},
	{"process.gc_cycles", "count"},
	{"client.req_per_s", "1/s"},
	{"client.hit_p50_ms", "ms"},
	{"client.hit_p90_ms", "ms"},
	{"client.miss_p50_ms", "ms"},
	{"client.miss_p90_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the benchmark's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run hands back: operation counts, whether
// every output check passed, and measured values by metric name.
type outcome struct {
	attempted, failed int
	mismatches        int // failed operations whose output was wrong
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records one failed operation; wrong marks an output mismatch (as
// opposed to a refused or broken request).
func (o *outcome) fail(wrong bool) {
	o.failed++
	if wrong {
		o.mismatches++
	}
}

// emit prints the human-readable metric lines and then the JSON result
// line with exactly the metric set defs names.
func (o *outcome) emit(w io.Writer, defs []metricDef) error {
	r := report{
		Correct:   o.mismatches == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	frac := float64(o.failed) / float64(o.attempted)
	fmt.Fprintf(w, "%-28s %14.6g %s  (%d of %d failed)\n", "failed_frac", frac, "ratio", o.failed, o.attempted)
	for _, d := range defs {
		v := o.values[d.Name]
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
