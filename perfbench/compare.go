package main

// Compare mode: paired runs of a parent and a change checkout with the
// same settings, alternating which side runs first, and a verdict per
// (metric, workload):
//
//	perfbench compare -parent <dir> -change <dir>
//
// Each side is a checkout holding BENCHMARK.json and perfbench/; the
// workloads, run length and bounds come from the change's BENCHMARK.json.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// comparison summarises one (metric, workload) over paired runs.
type comparison struct {
	ParentMedian, ParentQ1, ParentQ3 float64
	ChangeMedian, ChangeQ1, ChangeQ3 float64
	Wins, Pairs                      int
	Verdict                          string
}

// sideOutcome totals one side's output checks over a workload's runs.
type sideOutcome struct {
	Correct           bool
	Attempted, Failed int
}

func (s *sideOutcome) add(r report) {
	s.Correct = s.Correct && r.Correct
	s.Attempted += r.Attempted
	s.Failed += r.Failed
}

func (s sideOutcome) failedFrac() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Failed) / float64(s.Attempted)
}

// minPairs is the number of pairs compare runs per workload, and the
// fewest a "better" verdict may rest on.
const minPairs = 10

// compareSeed is the seed of the first pair; pair i uses compareSeed+i on
// both sides.
const compareSeed = 101

// compareRuns judges paired values (parent[i] and change[i] ran as pair
// i). A change whose outputs were wrong, or that failed a larger share of
// its operations than the parent, is "failed" whatever its timings. A
// change is "better" only if at least minPairs pairs ran, it wins at least
// nine tenths of them (ties count for neither side), and the medians
// differ by more than the parent's interquartile spread. Otherwise it is
// "unresolved" when that spread, as a share of the parent median, exceeds
// the bound; "worse" when the change median is worse than the parent's by
// more than the bound; and "within bound" if not.
func compareRuns(parent, change []float64, lowerIsBetter bool, bound float64, ps, cs sideOutcome) comparison {
	var c comparison
	c.Pairs = min(len(parent), len(change))
	c.ParentMedian, c.ChangeMedian = median(parent), median(change)
	c.ParentQ1, c.ParentQ3 = quartiles(parent)
	c.ChangeQ1, c.ChangeQ3 = quartiles(change)
	for i := 0; i < c.Pairs; i++ {
		if (lowerIsBetter && change[i] < parent[i]) || (!lowerIsBetter && change[i] > parent[i]) {
			c.Wins++
		}
	}
	spread := c.ParentQ3 - c.ParentQ1
	gain := c.ParentMedian - c.ChangeMedian // positive: change is lower
	if !lowerIsBetter {
		gain = -gain
	}
	relSpread, relLoss := 0.0, 0.0
	if c.ParentMedian != 0 {
		relSpread = spread / math.Abs(c.ParentMedian)
		relLoss = -gain / math.Abs(c.ParentMedian)
	}
	switch {
	case !cs.Correct || cs.failedFrac() > ps.failedFrac():
		c.Verdict = "failed"
	case c.Pairs >= minPairs && float64(c.Wins) >= 0.9*float64(c.Pairs) && gain > spread:
		c.Verdict = "better"
	case relSpread > bound:
		c.Verdict = "unresolved"
	case relLoss > bound:
		c.Verdict = "worse"
	default:
		c.Verdict = "within bound"
	}
	return c
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	parentDir := fs.String("parent", "", "parent checkout")
	changeDir := fs.String("change", "", "change checkout")
	fs.Parse(args)
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: -parent and -change are required")
		return 2
	}
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(*changeDir, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	fmt.Printf("%-9s %-12s %12s %25s %12s %25s %6s %9s %9s  %s\n",
		"workload", "metric", "parent_med", "parent_q1..q3", "change_med", "change_q1..q3", "wins",
		"parent_ff", "change_ff", "verdict")
	for _, wl := range bf.Workloads {
		w := wl.Name
		vals := map[string][2][]float64{}
		ps, cs := sideOutcome{Correct: true}, sideOutcome{Correct: true}
		for i := 0; i < minPairs; i++ {
			sides := []string{*parentDir, *changeDir}
			if i%2 == 1 {
				sides = []string{*changeDir, *parentDir}
			}
			got := map[string]report{}
			for _, dir := range sides {
				r, err := runSide(dir, bf, w, compareSeed+uint64(i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench compare: %s %s pair %d: %v\n", dir, w, i, err)
					return 1
				}
				got[dir] = r
			}
			ps.add(got[*parentDir])
			cs.add(got[*changeDir])
			for _, m := range bf.EndToEnd {
				v := vals[m.Name]
				v[0] = append(v[0], got[*parentDir].Metrics[m.Name].Value)
				v[1] = append(v[1], got[*changeDir].Metrics[m.Name].Value)
				vals[m.Name] = v
			}
		}
		for _, m := range bf.EndToEnd {
			c := compareRuns(vals[m.Name][0], vals[m.Name][1], m.Better == "lower", m.Bound, ps, cs)
			fmt.Printf("%-9s %-12s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %3d/%-2d %9.3g %9.3g  %s\n",
				w, m.Name, c.ParentMedian, c.ParentQ1, c.ParentQ3,
				c.ChangeMedian, c.ChangeQ1, c.ChangeQ3, c.Wins, c.Pairs,
				ps.failedFrac(), cs.failedFrac(), c.Verdict)
		}
	}
	return 0
}

// runSide runs the benchmark command once in a checkout and parses its
// result line.
func runSide(dir string, bf benchmarkFile, wl string, seed uint64) (report, error) {
	args := append(append([]string(nil), bf.Command[1:]...),
		"--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r report
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return report{}, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}
