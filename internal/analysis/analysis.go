// Package analysis is a small, dependency-free static-analysis
// framework modelled on golang.org/x/tools/go/analysis. It exists so
// the repo's correctness invariants — allocation-free hot paths,
// buffer-aliasing contracts, joined goroutines, metric hygiene — can be
// machine-checked by `cmd/blinkvet` without pulling x/tools onto the
// embedded target: the loader shells out to the already-present go
// tool for package metadata and export data, and everything else is
// go/ast + go/types.
//
// Analyzers inspect one type-checked package at a time through a Pass
// and report findings as Diagnostics. Cross-function knowledge — the
// call graph and the allocates/blocks/spawns fact sets computed by
// ComputeFacts over the whole loaded package set — arrives on the Pass
// as Facts. Findings are suppressed by a trailing or preceding line
// comment of the form
//
//	//blinkvet:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// which the driver (and the analysistest harness) honour uniformly.
// The reason after " -- " is mandatory; the ignorehygiene analyzer
// flags suppressions without one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in output and in
	// //blinkvet:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer's Run function, plus the suite-wide Facts.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds the call-graph fact sets and annotation registry
	// computed over every loaded package. Never nil under the standard
	// drivers; analyzers should still tolerate an empty Facts.
	Facts *Facts

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzersFacts applies every analyzer to the package and returns
// the findings with //blinkvet:ignore suppressions already filtered
// out, sorted by position. The facts come from ComputeFacts over every
// package of one load, so cross-package call chains resolve.
func RunAnalyzersFacts(pkg *Package, facts *Facts, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	diags = filterSuppressed(pkg.Fset, pkg.Files, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// IgnorePrefix marks a suppression comment.
const IgnorePrefix = "//blinkvet:ignore"

// ParseIgnore splits a comment's text into the suppressed analyzer
// names and the mandatory " -- " reason. ok is false when the comment
// is not a suppression at all. A suppression without a reason still
// suppresses (so a stale waiver never un-silences old findings during
// a cleanup) but is itself flagged by the ignorehygiene analyzer.
func ParseIgnore(text string) (names []string, reason string, hasReason bool, ok bool) {
	rest, ok := strings.CutPrefix(text, IgnorePrefix)
	if !ok {
		return nil, "", false, false
	}
	if i := strings.Index(rest, " -- "); i >= 0 {
		reason = strings.TrimSpace(rest[i+4:])
		hasReason = reason != ""
		rest = rest[:i]
	}
	// A nested // starts an ordinary comment (fixture want-markers,
	// trailing notes); it is not part of the analyzer list.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		for _, name := range strings.Split(fields[0], ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	return names, reason, hasReason, true
}

// suppressionsByLine maps file:line to the set of analyzer names
// suppressed there. A suppression on line N waives findings on line N
// and line N+1, so both trailing and preceding comments work.
func suppressionsByLine(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, _, _, ok := ParseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range names {
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := fmt.Sprintf("%s:%d", pos.Filename, line)
						if out[key] == nil {
							out[key] = make(map[string]bool)
						}
						out[key][name] = true
					}
				}
			}
		}
	}
	return out
}

func filterSuppressed(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	supp := suppressionsByLine(fset, files)
	if len(supp) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if supp[key][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
