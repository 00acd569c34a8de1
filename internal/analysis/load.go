// Package analysis is ldb's static-analysis suite: a stdlib-only
// driver (go/parser, go/ast, go/types — nothing outside the standard
// library) plus seven analyzers. The first four mechanize the paper's
// central claim — §4 and §6 argue that all machine dependence is
// confined to a few tiny per-target modules; until now the repository
// only *counted* that claim (internal/locstats reproduces the §4.3
// table) without *checking* it. The suite turns the
// machine-independent/machine-dependent boundary from a convention into
// an enforced interface, in the spirit of Hanson's follow-up, "A
// Machine-Independent Debugger—Revisited":
//
//   - machdep: no package outside the arch tree and the back ends may
//     import an ISA-specific package or spell an ISA opcode literal;
//     the machine-independent layers reach targets only through the
//     arch.Arch and machine interfaces.
//   - wireproto: the nub protocol's kind table is total — every kind
//     has a name, every request kind has a server dispatch arm, a
//     client encoder, and a pre-dispatch validation path, and every
//     switch over message kinds is exhaustive or defaults safely.
//   - endian: byte-order assumptions (binary.BigEndian/LittleEndian
//     and shift-assembled multibyte loads) appear only in the arch
//     tree and the defined-little-endian wire layer.
//   - recoverguard: every handler reachable from the nub's dispatch
//     table, and every target-resume path, runs under the panic
//     containment added for the crash-proof nub.
//
// The other three hold the concurrency and determinism invariants that
// arrived with the multi-session service and the differential corpus:
//
//   - lockorder: mutexes declared with //ldb:lock <name> <rank> are
//     acquired in strictly increasing rank order, never reentrantly,
//     and the acquired-while-held graph is acyclic.
//   - atomicity: a field accessed through sync/atomic anywhere is
//     accessed through it everywhere — no plain reads or writes, no
//     escaped addresses, no typed-atomic value copies.
//   - detstate: call trees rooted at //ldb:deterministic functions
//     never leak map iteration order, wall-clock time, randomness,
//     pointer values, live atomic counters, or goroutine scheduling
//     into replayed output.
//
// Violations are suppressed, one line at a time, by an annotation that
// is itself reported in the suite's summary:
//
//	//ldb:allow <analyzer> <reason>
//
// Like the paper's debugger, the analyzers are parameterized by
// machine-dependent *data*, not code: the opcode fingerprints machdep
// hunts for are derived from the registered arch descriptions by the
// caller (cmd/ldbvet, the self-test) and passed in as a table.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config names the repository under analysis.
type Config struct {
	// Root is the module root directory (the one holding go.mod).
	Root string
	// Mod is the module import path ("ldb" for this repository).
	Mod string
	// Fingerprints maps ISA opcode values (break and no-op encodings,
	// decoded in the target byte order) to a description like
	// "sparc break instruction". The machdep analyzer flags integer
	// literals with these values outside the machine-dependent tree.
	// Derive it with ArchFingerprints after linking the targets in.
	Fingerprints map[uint64]string
}

// File is one parsed, non-test source file.
type File struct {
	// Path is the file's path relative to Root, slash-separated.
	Path string
	AST  *ast.File
}

// Pkg is one loaded package.
type Pkg struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the package directory relative to Root ("" for the root).
	Dir   string
	Files []*File
	// Types is the type-checked package; nil after Parse (parse-only
	// loads, used by locstats, which needs only the package graph).
	Types *types.Package
}

// Repo is a loaded repository, ready for the analyzers.
type Repo struct {
	Config
	Fset *token.FileSet
	// Pkgs is every package in the module, sorted by import path.
	Pkgs []*Pkg
	// Info holds type information for every loaded file (nil after
	// Parse). A single shared Info is safe: its maps are keyed by AST
	// nodes, which are unique across packages.
	Info *types.Info

	byPath map[string]*Pkg
}

// ModulePath reads the module import path from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// FindRoot locates the module root (the directory containing go.mod)
// at or above dir.
func FindRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// Parse loads and parses every package in the module without type
// checking. Pkg.Types and Repo.Info are nil. This is enough for the
// package graph and the file classification locstats consumes.
func Parse(cfg Config) (*Repo, error) {
	return load(cfg, false)
}

// Load loads, parses, and type-checks every package in the module.
// Test files are excluded throughout: the boundary being enforced is
// the shipped debugger's, and tests exercise the targets by design.
func Load(cfg Config) (*Repo, error) {
	return load(cfg, true)
}

func load(cfg Config, check bool) (*Repo, error) {
	if cfg.Mod == "" {
		mod, err := ModulePath(cfg.Root)
		if err != nil {
			return nil, err
		}
		cfg.Mod = mod
	}
	r := &Repo{
		Config: cfg,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Pkg),
	}
	dirs, err := packageDirs(cfg.Root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		p, err := r.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			r.Pkgs = append(r.Pkgs, p)
			r.byPath[p.ImportPath] = p
		}
	}
	sort.Slice(r.Pkgs, func(i, j int) bool { return r.Pkgs[i].ImportPath < r.Pkgs[j].ImportPath })
	if !check {
		return r, nil
	}
	r.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	im := &moduleImporter{
		repo: r,
		std:  importer.ForCompiler(r.Fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	for _, p := range r.Pkgs {
		if _, err := im.check(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// packageDirs lists every directory under root holding Go source,
// relative to root, skipping testdata trees, hidden directories, and
// vendored code. The walk order is sorted, so loads are deterministic.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if rel == "." {
				rel = ""
			}
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || d != dirs[i-1] {
			out = append(out, d)
		}
	}
	return out, nil
}

// parseDir parses one package directory (nil if it holds no non-test
// Go files after all).
func (r *Repo) parseDir(dir string) (*Pkg, error) {
	abs := filepath.Join(r.Root, filepath.FromSlash(dir))
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	importPath := r.Mod
	if dir != "" {
		importPath = r.Mod + "/" + dir
	}
	p := &Pkg{ImportPath: importPath, Dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(r.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		rel := name
		if dir != "" {
			rel = dir + "/" + name
		}
		p.Files = append(p.Files, &File{Path: rel, AST: f})
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	return p, nil
}

// moduleImporter resolves the module's own import paths from the
// parsed tree and everything else (the standard library) through the
// stdlib source importer, so the whole load needs no compiled export
// data and no tooling outside the standard library.
type moduleImporter struct {
	repo     *Repo
	std      types.Importer
	pkgs     map[string]*types.Package
	checking map[string]bool
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == im.repo.Mod || strings.HasPrefix(path, im.repo.Mod+"/") {
		p, ok := im.repo.byPath[path]
		if !ok {
			return nil, fmt.Errorf("analysis: import %q not found in module", path)
		}
		return im.check(p)
	}
	return im.std.Import(path)
}

func (im *moduleImporter) check(p *Pkg) (*types.Package, error) {
	if tp, ok := im.pkgs[p.ImportPath]; ok {
		return tp, nil
	}
	if im.checking == nil {
		im.checking = make(map[string]bool)
	}
	if im.checking[p.ImportPath] {
		return nil, fmt.Errorf("analysis: import cycle through %q", p.ImportPath)
	}
	im.checking[p.ImportPath] = true
	defer delete(im.checking, p.ImportPath)
	files := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		files[i] = f.AST
	}
	conf := types.Config{Importer: im}
	tp, err := conf.Check(p.ImportPath, im.repo.Fset, files, im.repo.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
	}
	p.Types = tp
	im.pkgs[p.ImportPath] = tp
	return tp, nil
}

// Position returns pos as (file-relative-to-root, line, column).
func (r *Repo) Position(pos token.Pos) (string, int, int) {
	p := r.Fset.Position(pos)
	rel, err := filepath.Rel(r.Root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line, p.Column
}
