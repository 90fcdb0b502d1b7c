// Package analysis is mtexc-lint: a family of static analyzers that
// check the invariants the reproduction's headline claims rest on —
// wall-clock and map-order determinism in the simulator packages,
// value-purity of the journal-fingerprinted configuration structs,
// no use of pool-recycled uops after release, and hot-path statistics
// discipline. See docs/analysis.md for the catalogue.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// alone — go/parser + go/types with a module-aware source importer —
// so the module stays dependency-free.
//
// Findings are suppressed, one site at a time, with an explanation:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or the line directly above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppressions.
	Name string
	// Doc states the invariant the analyzer enforces, first line short.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path (synthetic for golden tests).
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Pkg is the package under analysis and Module the whole-module
	// view (call graph + shared fact caches) the interprocedural
	// analyzers consult. Module is never nil: per-package runs get a
	// single-package module.
	Pkg    *Package
	Module *Module

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order. The first
// four are the intra-procedural checks from the original suite; the
// last three are interprocedural, built on the module call graph.
func All() []*Analyzer {
	return []*Analyzer{
		Detlint, Fingerprintlint, Poollint, Statlint,
		Dettaint, Atomiclint, Hotpathlint,
	}
}

// SuppressAnalyzer names the pseudo-analyzer under which stale or
// malformed `//lint:allow` comments are reported. Its findings cannot
// themselves be suppressed — the fix is deleting the comment.
const SuppressAnalyzer = "suppress"

// RunModule applies one analyzer to pkg with mod as the whole-module
// view.
func RunModule(a *Analyzer, mod *Module, pkg *Package) ([]Diagnostic, error) {
	diags, _, err := runOne(a, mod, pkg)
	return diags, err
}

func runOne(a *Analyzer, mod *Module, pkg *Package) ([]Diagnostic, map[allowKey]bool, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Path:     pkg.Path,
		Files:    pkg.Files,
		Types:    pkg.Types,
		Info:     pkg.Info,
		Pkg:      pkg,
		Module:   mod,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags, used := filterSuppressed(pkg, diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, used, nil
}

// RunSuite applies analyzers to pkg under mod and, when checkStale is
// set, appends SuppressAnalyzer findings for every `//lint:allow`
// comment in pkg that names one of the analyzers that just ran yet
// suppressed nothing — so fixed code sheds its waivers — or that
// names an analyzer that does not exist.
func RunSuite(analyzers []*Analyzer, mod *Module, pkg *Package, checkStale bool) ([]Diagnostic, error) {
	var out []Diagnostic
	used := map[allowKey]bool{}
	for _, a := range analyzers {
		d, u, err := runOne(a, mod, pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, d...)
		for k := range u {
			used[k] = true
		}
	}
	if checkStale {
		out = append(out, StaleSuppressions(pkg, analyzers, used)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// allowKey identifies one suppression comment site by its own
// position and the analyzer it names.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// Suppression is one parsed `//lint:allow <analyzer> <reason>`
// comment.
type Suppression struct {
	Pos      token.Pos
	Analyzer string
	Reason   string
}

// Suppressions returns every well-formed allow comment of pkg in
// source order — the `-prune-suppressions` listing and the stale
// check both build on it.
func Suppressions(pkg *Package) []Suppression {
	var out []Suppression
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:allow ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// A suppression without a reason is ignored: the
					// reason is the point.
					continue
				}
				out = append(out, Suppression{
					Pos:      c.Pos(),
					Analyzer: fields[0],
					Reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func (s Suppression) key(fset *token.FileSet) allowKey {
	pos := fset.Position(s.Pos)
	return allowKey{pos.Filename, pos.Line, s.Analyzer}
}

// filterSuppressed drops findings covered by an allow comment — one
// on the finding's line or the line directly above it — and reports
// which suppression sites actually fired, keyed by the comment's own
// (file, line, analyzer).
func filterSuppressed(pkg *Package, diags []Diagnostic) ([]Diagnostic, map[allowKey]bool) {
	used := map[allowKey]bool{}
	if len(diags) == 0 {
		return diags, used
	}
	// A suppression covers findings on its own line and on the line
	// directly below it (the comment-above-the-statement form).
	covering := map[allowKey]allowKey{}
	for _, s := range Suppressions(pkg) {
		key := s.key(pkg.Fset)
		for _, line := range []int{key.line, key.line + 1} {
			covering[allowKey{key.file, line, s.Analyzer}] = key
		}
	}
	if len(covering) == 0 {
		return diags, used
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if site, ok := covering[allowKey{pos.Filename, pos.Line, d.Analyzer}]; ok {
			used[site] = true
			continue
		}
		kept = append(kept, d)
	}
	return kept, used
}

// StaleSuppressions reports allow comments in pkg that can be pruned:
// those naming an analyzer that ran and suppressed nothing (the
// violation they waived has been fixed), and those naming an analyzer
// that does not exist at all (typos never suppress anything).
func StaleSuppressions(pkg *Package, ran []*Analyzer, used map[allowKey]bool) []Diagnostic {
	ranNames := map[string]bool{}
	for _, a := range ran {
		ranNames[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, s := range Suppressions(pkg) {
		switch {
		case !known[s.Analyzer]:
			out = append(out, Diagnostic{
				Pos:      s.Pos,
				Analyzer: SuppressAnalyzer,
				Message: fmt.Sprintf("//lint:allow names unknown analyzer %q (known: see mtexc-lint -list)",
					s.Analyzer),
			})
		case ranNames[s.Analyzer] && !used[s.key(pkg.Fset)]:
			out = append(out, Diagnostic{
				Pos:      s.Pos,
				Analyzer: SuppressAnalyzer,
				Message: fmt.Sprintf("stale //lint:allow %s suppresses no finding — the violation it waived is gone; delete the comment",
					s.Analyzer),
			})
		}
	}
	return out
}

// hasMagicComment reports whether any file of the pass carries the
// given marker comment (e.g. "mtexc:deterministic").
func hasMagicComment(files []*ast.File, marker string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
					return true
				}
			}
		}
	}
	return false
}

// docHasMarker reports whether a doc comment group contains marker.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}
