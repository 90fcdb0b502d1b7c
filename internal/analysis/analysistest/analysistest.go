// Package analysistest runs an analyzer over a golden testdata
// package and compares its findings against `// want` expectations,
// mirroring golang.org/x/tools/go/analysis/analysistest on the
// standard library alone.
//
// Golden packages live under internal/analysis/testdata/src/<path>
// and may import real module packages. Each line expecting one or
// more findings carries a trailing comment:
//
//	m.Stats.Counter("x").Inc() // want `inside a loop`
//
// The quoted strings are regular expressions matched against the
// diagnostic messages on that line. Findings without a matching want,
// and wants without a matching finding, both fail the test — so a
// disabled or broken check cannot pass its golden test.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mtexc/internal/analysis"
)

// wantRe pulls the backquoted or quoted expectations off a want
// comment: // want `re` `re2` ...
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads testdata/src/<pkgRel> (relative to the calling test's
// package directory), applies the analyzer, and compares findings
// against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgRel string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgRel))
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDirAs(pkgRel, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	// The module view covers the golden package plus everything it
	// (transitively) imported from the real module, so interprocedural
	// analyzers see cross-package call edges in golden tests too.
	mod := analysis.NewModule(loader.Loaded())
	diags, err := analysis.RunModule(a, mod, pkg)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type site struct {
		file string
		line int
	}
	wants := map[site][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(rest, -1) {
					pat, err := unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants[site{pos.Filename, pos.Line}] = append(wants[site{pos.Filename, pos.Line}], re)
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := site{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s:%d: unexpected finding: %s: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected finding matching %q, got none (check disabled or broken?)", key.file, key.line, re)
		}
	}
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}
