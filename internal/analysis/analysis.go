package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// A Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer: "machdep", "wireproto",
	// "endian", "recoverguard", "lockorder", "atomicity", "detstate",
	// or "allow" for annotation hygiene.
	Analyzer string `json:"analyzer"`
	// Path is the offending file, relative to the module root.
	Path string `json:"path"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
	// Allowed reports that a //ldb:allow annotation suppressed this
	// finding; AllowReason is the annotation's justification. Allowed
	// findings don't fail the run but are tallied in the summary.
	Allowed     bool   `json:"allowed,omitempty"`
	AllowReason string `json:"allowReason,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Analyzer, d.Msg)
	if d.Allowed {
		s += fmt.Sprintf(" (allowed: %s)", d.AllowReason)
	}
	return s
}

// An Analyzer checks one property over the loaded repository.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Repo) []Diagnostic
}

// Suite is the fixed analyzer battery, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		{
			Name: "machdep",
			Doc:  "machine dependence confined to arch tree, back ends, and simulators",
			Run:  runMachdep,
		},
		{
			Name: "wireproto",
			Doc:  "nub protocol kind table total: handler, encoder, validation, name per kind",
			Run:  runWireproto,
		},
		{
			Name: "endian",
			Doc:  "byte-order assumptions confined to arch tree and the wire layer",
			Run:  runEndian,
		},
		{
			Name: "recoverguard",
			Doc:  "nub dispatch handlers and resume paths run under panic containment",
			Run:  runRecoverguard,
		},
		{
			Name: "lockorder",
			Doc:  "module mutexes carry //ldb:lock ranks; acquired-while-held edges go strictly uprank, no cycles",
			Run:  runLockorder,
		},
		{
			Name: "atomicity",
			Doc:  "variables touched via sync/atomic are never read or written plainly anywhere in the module",
			Run:  runAtomicity,
		},
		{
			Name: "detstate",
			Doc:  "functions reachable from //ldb:deterministic roots avoid map-order, time, rand, %p, and live concurrent state",
			Run:  runDetstate,
		},
	}
}

// allowDirective is one parsed //ldb:allow comment.
type allowDirective struct {
	path     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// directivePrefix introduces all of the suite's magic comments
// (//ldb:allow, //ldb:target, //ldb:kind-table, //ldb:dispatch-table,
// //ldb:contain, //ldb:lock, //ldb:deterministic).
const directivePrefix = "//ldb:"

// fileDirectives scans a file's comments for //ldb: directives with the
// given verb ("allow", "target", ...) and returns them with positions.
func (r *Repo) fileDirectives(f *File, verb string) []allowDirective {
	var out []allowDirective
	want := directivePrefix + verb
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, want) {
				continue
			}
			rest := text[len(want):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //ldb:allowx
			}
			_, line, _ := r.Position(c.Pos())
			fields := strings.Fields(rest)
			d := allowDirective{path: f.Path, line: line}
			if len(fields) > 0 {
				d.analyzer = fields[0]
				d.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			}
			out = append(out, d)
		}
	}
	return out
}

// RunSuite runs every analyzer over the repository, applies the
// //ldb:allow annotations, and appends annotation-hygiene diagnostics
// (missing reasons, unknown analyzers, stale annotations that suppress
// nothing) under the pseudo-analyzer "allow". The result is sorted by
// file, line, column, analyzer.
func RunSuite(r *Repo) []Diagnostic {
	var diags []Diagnostic
	for _, a := range Suite() {
		diags = append(diags, a.Run(r)...)
	}

	known := make(map[string]bool)
	for _, a := range Suite() {
		known[a.Name] = true
	}
	var allows []*allowDirective
	var hygiene []Diagnostic
	for _, p := range r.Pkgs {
		for _, f := range p.Files {
			for _, d := range r.fileDirectives(f, "allow") {
				d := d
				switch {
				case d.analyzer == "":
					hygiene = append(hygiene, Diagnostic{
						Analyzer: "allow", Path: d.path, Line: d.line, Col: 1,
						Msg: "//ldb:allow needs an analyzer name and a reason",
					})
				case !known[d.analyzer]:
					hygiene = append(hygiene, Diagnostic{
						Analyzer: "allow", Path: d.path, Line: d.line, Col: 1,
						Msg: fmt.Sprintf("//ldb:allow names unknown analyzer %q", d.analyzer),
					})
				case d.reason == "":
					hygiene = append(hygiene, Diagnostic{
						Analyzer: "allow", Path: d.path, Line: d.line, Col: 1,
						Msg: fmt.Sprintf("//ldb:allow %s needs a reason", d.analyzer),
					})
				default:
					allows = append(allows, &d)
				}
			}
		}
	}

	// An allow suppresses findings by its analyzer on its own line
	// (trailing comment) or on the line immediately below (comment on
	// the line above the code).
	for i := range diags {
		d := &diags[i]
		for _, a := range allows {
			if a.analyzer == d.Analyzer && a.path == d.Path && (a.line == d.Line || a.line == d.Line-1) {
				d.Allowed = true
				d.AllowReason = a.reason
				a.used = true
			}
		}
	}
	for _, a := range allows {
		if !a.used {
			hygiene = append(hygiene, Diagnostic{
				Analyzer: "allow", Path: a.path, Line: a.line, Col: 1,
				Msg: fmt.Sprintf("stale //ldb:allow %s suppresses nothing", a.analyzer),
			})
		}
	}
	diags = append(diags, hygiene...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
	return diags
}

// Failing filters diags down to the ones that should fail a run:
// everything not suppressed by a valid //ldb:allow.
func Failing(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Allowed {
			out = append(out, d)
		}
	}
	return out
}

// markedDecls returns the top-level declarations in f whose doc
// comments carry the //ldb:<verb> directive.
func markedDecls(f *File, verb string) []ast.Decl {
	var out []ast.Decl
	want := directivePrefix + verb
	for _, decl := range f.AST.Decls {
		var doc *ast.CommentGroup
		switch d := decl.(type) {
		case *ast.GenDecl:
			doc = d.Doc
		case *ast.FuncDecl:
			doc = d.Doc
		}
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
				out = append(out, decl)
				break
			}
		}
	}
	return out
}
