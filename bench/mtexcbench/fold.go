package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path"
	"strconv"
	"strings"
)

// profGroups are the prof.* per-layer metrics: host CPU time folded by
// source file, each as a share of all profiled samples.
var profGroups = []string{
	"cpu.core", "cpu.uop", "cpu.fetch", "cpu.issue", "cpu.complete", "cpu.retire",
	"cpu.exception", "cpu.other",
	"cache", "vm", "bpred", "stats_obs", "fastpath", "core_sample", "diffsim",
	"topology", "harness",
	"runtime.gc_alloc", "runtime.maps", "other",
}

// modulePkgGroup maps a package directory of the module to its group.
var modulePkgGroup = map[string]string{
	"internal/cache":          "cache",
	"internal/vm":             "vm",
	"internal/mem":            "vm",
	"internal/bpred":          "bpred",
	"internal/stats":          "stats_obs",
	"internal/obs":            "stats_obs",
	"internal/fastpath":       "fastpath",
	"internal/topology":       "topology",
	"internal/harness":        "harness",
	"internal/telemetry":      "harness",
	"internal/diffsim":        "diffsim",
	"internal/diffsim/gen":    "diffsim",
	"internal/diffsim/refemu": "diffsim",
}

// cpuFiles are the cycle core's stage files that get a group each.
var cpuFiles = map[string]bool{
	"core.go": true, "uop.go": true, "fetch.go": true, "issue.go": true,
	"complete.go": true, "retire.go": true, "exception.go": true,
}

// runtimeAllocPrefixes name the runtime's allocator and garbage
// collector source files.
var runtimeAllocPrefixes = []string{
	"malloc", "mbarrier", "mbitmap", "mcache", "mcentral", "mcheckmark", "mem_", "mem.go",
	"memclr", "mfinal", "mfixalloc", "mgc", "mheap", "mpagealloc", "mpagecache",
	"mpallocbits", "mranges", "msize", "mspanset", "mstats", "mwbbuf",
}

// moduleFile returns a source file's path within the mtexc module.
// Builds record module files under the absolute repository root, or
// under the module path ("mtexc@v0.0.0/" for the benchmark's required
// copy) when built with -trimpath.
func moduleFile(file, root string) (string, bool) {
	if rel, ok := strings.CutPrefix(file, root+"/"); ok {
		return rel, true
	}
	mod, rel, ok := strings.Cut(file, "/")
	return rel, ok && (mod == "mtexc" || strings.HasPrefix(mod, "mtexc@"))
}

// fileGroup assigns one profiled source file to its prof.* group.
func fileGroup(file, root string) string {
	rel, ok := moduleFile(file, root)
	if !ok {
		rel = file
	}
	dir, base := path.Split(rel)
	dir = strings.TrimSuffix(dir, "/")
	if ok {
		switch {
		case dir == "internal/cpu" && cpuFiles[base]:
			return "cpu." + strings.TrimSuffix(base, ".go")
		case dir == "internal/cpu":
			return "cpu.other"
		case rel == "internal/core/sample.go":
			return "core_sample"
		}
		if g, ok := modulePkgGroup[dir]; ok {
			return g
		}
		return "other"
	}
	switch {
	case strings.Contains(file, "internal/runtime/maps/") ||
		(path.Base(dir) == "runtime" && strings.HasPrefix(base, "map")):
		return "runtime.maps"
	case path.Base(dir) == "runtime":
		for _, p := range runtimeAllocPrefixes {
			if strings.HasPrefix(base, p) {
				return "runtime.gc_alloc"
			}
		}
	}
	return "other"
}

// parseTopFiles reads the text of `go tool pprof -top -files` and
// returns the flat seconds per source file, with the "(inline)" rows
// of a file summed into it, and the profile's total seconds. Text it
// cannot read is an error: a fold never reports made-up zeros.
func parseTopFiles(text string) (map[string]float64, float64, error) {
	flat := make(map[string]float64)
	total := -1.0
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			// "Showing nodes accounting for 410ms, 100% of 410ms total"
			_, after, ok := strings.Cut(line, " of ")
			f := strings.Fields(after)
			if !ok || len(f) < 2 || f[1] != "total" {
				return nil, 0, fmt.Errorf("fold: unreadable header %q", line)
			}
			v, err := parseDur(f[0])
			if err != nil {
				return nil, 0, err
			}
			total = v
		case strings.HasPrefix(line, "flat "):
			inTable = true
		case inTable && line != "":
			f := strings.Fields(line)
			if len(f) < 6 {
				return nil, 0, fmt.Errorf("fold: unreadable row %q", line)
			}
			v, err := parseDur(f[0])
			if err != nil {
				return nil, 0, err
			}
			file := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
			flat[file] += v
		}
	}
	if total <= 0 || len(flat) == 0 {
		return nil, 0, fmt.Errorf("fold: no samples in pprof output")
	}
	return flat, total, nil
}

// parseDur reads a pprof duration cell such as "0", "850us", "410ms",
// "1.25s" or "1.02mins" as seconds.
func parseDur(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("fold: bad duration %q", s)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("fold: bad duration %q", s)
}

// foldProfile runs `go tool pprof -top -files` on a CPU profile and
// adds every prof.* share to out.
func foldProfile(profile, root string, out map[string]float64) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-nodecount=100000", "-nodefraction=0", profile)
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("fold: go tool pprof %s: %w", profile, err)
	}
	flat, total, err := parseTopFiles(string(b))
	if err != nil {
		return err
	}
	shares := make(map[string]float64)
	for file, v := range flat {
		shares[fileGroup(file, root)] += v / total
	}
	for _, g := range profGroups {
		out["prof."+g] = shares[g]
	}
	return nil
}
