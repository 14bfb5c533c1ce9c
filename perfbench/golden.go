package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// artifactNames is rbexp's `-exp all` order.
var artifactNames = []string{
	"fig1", "table1", "table2", "table3", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "sweeps", "summary",
}

// goldenArtifact pins one artifact's text: the bytes `rbexp -exp <name>
// -parallel 1` prints, trailing blank line included.
type goldenArtifact struct {
	Name    string `json:"name"`
	Heading string `json:"heading"`
	Bytes   int    `json:"bytes"`
	SHA256  string `json:"sha256"`
}

type golden struct {
	Source    string           `json:"source"`
	SHA256    string           `json:"sha256"`
	Artifacts []goldenArtifact `json:"artifacts"`
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(g.Artifacts) != len(artifactNames) {
		return nil, fmt.Errorf("%s: %d artifacts, want %d", path, len(g.Artifacts), len(artifactNames))
	}
	return &g, nil
}

func (g *golden) artifact(name string) *goldenArtifact {
	for i := range g.Artifacts {
		if g.Artifacts[i].Name == name {
			return &g.Artifacts[i]
		}
	}
	return nil
}

// split cuts `rbexp -exp all` output into artifacts at the golden
// headings; an artifact whose heading is missing comes back nil.
func (g *golden) split(out []byte) [][]byte {
	parts := make([][]byte, len(g.Artifacts))
	starts := make([]int, len(g.Artifacts))
	cur := 0
	for i, a := range g.Artifacts {
		starts[i] = -1
		h := []byte(a.Heading + "\n")
		for off := cur; off < len(out); {
			j := bytes.Index(out[off:], h)
			if j < 0 {
				break
			}
			if at := off + j; at == 0 || out[at-1] == '\n' {
				starts[i], cur = at, at+len(h)
				break
			}
			off += j + 1
		}
	}
	for i, s := range starts {
		if s < 0 {
			continue
		}
		end := len(out)
		for _, t := range starts[i+1:] {
			if t >= 0 {
				end = t
				break
			}
		}
		parts[i] = out[s:end]
	}
	return parts
}

// check compares `rbexp -exp all` output with the golden artifacts and
// returns how many artifacts are wrong or missing.
func (g *golden) check(out []byte) int {
	bad := 0
	for i, p := range g.split(out) {
		if p == nil || digest(p) != g.Artifacts[i].SHA256 {
			bad++
		}
	}
	return bad
}

// goldenMain regenerates golden/figures.json from the serial oracle and
// golden/kernels.json from the default seed, run from the repository root
// after run.sh has built rbexp:
//
//	.bench_build/bin/perfbench golden
func goldenMain() int {
	g := golden{Source: "rbexp -exp all -parallel 1"}
	var all []byte
	for _, name := range artifactNames {
		p := runProc(bin("rbexp"), []string{"-exp", name, "-parallel", "1"}, false)
		if p.Err != nil {
			fmt.Fprintf(os.Stderr, "perfbench golden: %v\n", p.Err)
			return 1
		}
		heading, _, _ := bytes.Cut(p.Stdout, []byte("\n"))
		g.Artifacts = append(g.Artifacts, goldenArtifact{
			Name: name, Heading: string(heading), Bytes: len(p.Stdout), SHA256: digest(p.Stdout),
		})
		all = append(all, p.Stdout...)
	}
	p := runProc(bin("rbexp"), []string{"-exp", "all", "-parallel", "1"}, false)
	if p.Err != nil {
		fmt.Fprintf(os.Stderr, "perfbench golden: %v\n", p.Err)
		return 1
	}
	if !bytes.Equal(p.Stdout, all) {
		fmt.Fprintf(os.Stderr, "perfbench golden: -exp all differs from the concatenated artifacts\n")
		return 1
	}
	g.SHA256 = digest(all)
	if bad := g.check(all); bad != 0 {
		fmt.Fprintf(os.Stderr, "perfbench golden: headings do not split the output (%d bad)\n", bad)
		return 1
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err == nil {
		err = os.WriteFile(figuresGoldenPath, append(b, '\n'), 0o644)
	}
	if err == nil {
		err = writeKernelsGolden(kernelsGoldenPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench golden: %v\n", err)
		return 1
	}
	return 0
}

// writeKernelsGolden pins the result digests of the default seed's first
// kernels pass.
func writeKernelsGolden(path string) error {
	kg := kernelsGolden{Seed: defaultSeed}
	for _, spec := range kernelSet(defaultSeed, 0) {
		res, err := runKernel(spec, false)
		if err != nil {
			return err
		}
		if err := res.check(spec.Width); err != nil {
			return fmt.Errorf("kernel %s: %w", spec.Params.Name, err)
		}
		kg.Digests = append(kg.Digests, res.Digest)
	}
	b, err := json.MarshalIndent(kg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
