// Package analysis implements a small, dependency-free static-analysis
// framework in the style of golang.org/x/tools/go/analysis, together with
// the repo-specific analyzers ("symlint") that enforce invariants the
// symbolic-execution stack relies on but the Go compiler cannot see:
//
//   - determinism: replay-based forking (DESIGN.md §5.1) requires every
//     co-simulation run to be bit-for-bit deterministic, so wall-clock,
//     global PRNGs, goroutines and order-sensitive map iteration are banned
//     from the deterministic kernel packages.
//   - hashcons: the voter's pointer-equality fast path is sound only if
//     every smt.Term is built through the hash-consing Context, so raw
//     term construction outside internal/smt is banned.
//   - clauseimmut: shared literal slices ([]sat.Lit) that crossed a
//     package boundary are immutable; mutating them corrupts the
//     bit-blaster's caches (the SAT solver copies clauses into its arena).
//   - checkederr: solver/engine APIs report failure through error returns;
//     silently discarding them turns solver aborts into bogus verdicts.
//
// The framework deliberately mirrors go/analysis (Analyzer, Pass,
// Diagnostic, Reportf) so the analyzers could be ported to a multichecker
// driver verbatim if the x/tools dependency ever becomes acceptable; the
// repo's solver stack stays stdlib-only either way.
//
// Suppression: a diagnostic is suppressed by an explicit, justified
// directive on (or immediately above) the offending line:
//
//	//symlint:allow determinism -- wall-clock budget only, never feeds terms
//
// A directive without the "-- reason" part is itself reported. Unjustified
// suppression is not available by design.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in allow directives.
	Name string
	// Doc is a short description shown by `symlint -list`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Run applies the analyzers to the package, filters the results through the
// //symlint:allow directives found in the package's files, and returns the
// surviving diagnostics sorted by position. Malformed directives are
// reported as diagnostics of the pseudo-analyzer "directive".
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs, bad := collectDirectives(pkg.Fset, pkg.Files)
	var out []Diagnostic
	out = append(out, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		for _, d := range pass.diags {
			if dirs.allows(a.Name, d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// directives maps file -> line -> set of allowed analyzer names.
type directives map[string]map[int]map[string]bool

func (d directives) allows(analyzer string, pos token.Position) bool {
	lines := d[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer]
}

const directivePrefix = "//symlint:allow"

// collectDirectives parses //symlint:allow comments. A directive applies to
// the source line it appears on; a directive alone on its line applies to
// the next line instead (the lint-comment convention).
func collectDirectives(fset *token.FileSet, files []*ast.File) (directives, []Diagnostic) {
	dirs := make(directives)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				names, reason, found := strings.Cut(rest, "--")
				if !found || strings.TrimSpace(reason) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  `symlint:allow directive requires a justification: "//symlint:allow <analyzer> -- <reason>"`,
					})
					continue
				}
				nameList := strings.FieldsFunc(names, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
				if len(nameList) == 0 {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "symlint:allow directive names no analyzer",
					})
					continue
				}
				fileDirs := dirs[pos.Filename]
				if fileDirs == nil {
					fileDirs = make(map[int]map[string]bool)
					dirs[pos.Filename] = fileDirs
				}
				// A trailing directive covers its own line; a standalone
				// directive covers the next. Granting both is simpler than
				// telling the cases apart and cannot hide an unrelated
				// violation of a different analyzer.
				for _, line := range [2]int{pos.Line, pos.Line + 1} {
					set := fileDirs[line]
					if set == nil {
						set = make(map[string]bool)
						fileDirs[line] = set
					}
					for _, n := range nameList {
						set[strings.TrimSpace(n)] = true
					}
				}
			}
		}
	}
	return dirs, bad
}
