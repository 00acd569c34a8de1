package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the shared infrastructure for the whole-module analyzers
// added with the concurrency/determinism suite (lockorder, atomicity,
// detstate): an index of every function declared in the module, a
// direct static call graph over it, and the parsers for the annotation
// grammar those analyzers consume:
//
//	//ldb:lock <name> <rank>          on a mutex field or package var
//	//ldb:deterministic               on a function declaration
//
// The call graph is direct-call only: a callee is recorded when the
// call expression resolves to a *types.Func declared in the module
// (plain calls, method calls on concrete receivers, and function
// values passed as call arguments). Dynamic dispatch through interface
// values is invisible to it — the analyzers that ride on the graph
// (detstate's reachability, lockorder's summaries) document that
// approximation.

// declFunc is one function declared in the module, with its object.
type declFunc struct {
	pkg  *Pkg
	file *File
	decl *ast.FuncDecl
	obj  types.Object
}

// funcIndex maps every module function object to its declaration and
// records a stable ordering for deterministic iteration.
type funcIndex struct {
	byObj map[types.Object]*declFunc
	list  []*declFunc
}

// moduleFuncs indexes every function and method declared in the module.
func (r *Repo) moduleFuncs() *funcIndex {
	ix := &funcIndex{byObj: make(map[types.Object]*declFunc)}
	for _, p := range r.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := r.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				df := &declFunc{pkg: p, file: f, decl: fd, obj: obj}
				ix.byObj[obj] = df
				ix.list = append(ix.list, df)
			}
		}
	}
	return ix
}

// callees returns the module functions referenced from fd's body —
// direct calls plus function values passed around (the
// resumeAndLatch(n.runAndLatch) shape) — in source order.
func (r *Repo) callees(ix *funcIndex, fd *ast.FuncDecl) []*declFunc {
	var out []*declFunc
	seen := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var obj types.Object
		switch e := n.(type) {
		case *ast.Ident:
			obj = r.Info.Uses[e]
		case *ast.SelectorExpr:
			obj = r.Info.Uses[e.Sel]
		default:
			return true
		}
		if f, ok := obj.(*types.Func); ok && !seen[f] {
			if df, ok := ix.byObj[f]; ok {
				seen[f] = true
				out = append(out, df)
			}
		}
		return true
	})
	return out
}

// reachable computes the set of module functions reachable from the
// given roots over the direct call graph. The result maps each function
// to the root it was first reached from (for diagnostics).
func (r *Repo) reachable(ix *funcIndex, roots []*declFunc) map[types.Object]*declFunc {
	out := make(map[types.Object]*declFunc)
	var queue []*declFunc
	for _, root := range roots {
		if _, ok := out[root.obj]; !ok {
			out[root.obj] = root
			queue = append(queue, root)
		}
	}
	for len(queue) > 0 {
		df := queue[0]
		queue = queue[1:]
		root := out[df.obj]
		for _, callee := range r.callees(ix, df.decl) {
			if _, ok := out[callee.obj]; !ok {
				out[callee.obj] = root
				queue = append(queue, callee)
			}
		}
	}
	return out
}

// directiveArgs splits the argument text of a //ldb:<verb> comment into
// fields, returning nil when the comment is not that verb.
func directiveArgs(c *ast.Comment, verb string) ([]string, bool) {
	want := directivePrefix + verb
	if !strings.HasPrefix(c.Text, want) {
		return nil, false
	}
	rest := c.Text[len(want):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	return strings.Fields(rest), true
}

// commentGroupArgs looks a //ldb:<verb> directive up in a comment
// group, returning its arguments.
func commentGroupArgs(cg *ast.CommentGroup, verb string) ([]string, bool) {
	if cg == nil {
		return nil, false
	}
	for _, c := range cg.List {
		if args, ok := directiveArgs(c, verb); ok {
			return args, true
		}
	}
	return nil, false
}

// isMutexType reports whether t (after unwrapping pointers) is
// sync.Mutex or sync.RWMutex, and whether it is the RW flavor.
func isMutexType(t types.Type) (mutex, rw bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false, false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return true, false
	case "RWMutex":
		return true, true
	}
	return false, false
}

// lockDecl is one mutex declared at module scope: a struct field or a
// package-level variable, with its //ldb:lock annotation if present.
type lockDecl struct {
	obj  types.Object // the field or var
	file *File
	pos  ast.Node // the declaring node, for diagnostics
	name string   // annotated lock name ("" when unannotated)
	rank int
	ok   bool // annotation parsed cleanly
	err  string
}

// moduleLocks scans every struct field and package-level variable of
// mutex type, pairing each with its //ldb:lock annotation. Function-
// local mutexes are deliberately out of scope: they cannot participate
// in a cross-function ordering cycle under the declared-rank scheme
// and are treated as leaves.
func (r *Repo) moduleLocks() []*lockDecl {
	var out []*lockDecl
	addField := func(f *File, fld *ast.Field, obj types.Object) {
		ld := &lockDecl{obj: obj, file: f, pos: fld}
		args, ok := commentGroupArgs(fld.Doc, "lock")
		if !ok {
			args, ok = commentGroupArgs(fld.Comment, "lock")
		}
		parseLockArgs(ld, args, ok)
		out = append(out, ld)
	}
	for _, p := range r.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						// Struct fields, including embedded mutexes: the
						// checked struct type pairs each AST field (one slot
						// per name, one for an anonymous field) with its
						// *types.Var in declaration order.
						tobj := r.Info.Defs[s.Name]
						if tobj == nil {
							continue
						}
						tstruct, ok := tobj.Type().Underlying().(*types.Struct)
						if !ok {
							continue
						}
						idx := 0
						for _, fld := range st.Fields.List {
							slots := len(fld.Names)
							if slots == 0 {
								slots = 1
							}
							for s := 0; s < slots; s++ {
								if idx >= tstruct.NumFields() {
									break
								}
								obj := tstruct.Field(idx)
								idx++
								if m, _ := isMutexType(obj.Type()); m {
									addField(f, fld, obj)
								}
							}
						}
					case *ast.ValueSpec:
						for _, nm := range s.Names {
							obj := r.Info.Defs[nm]
							if obj == nil {
								continue
							}
							if m, _ := isMutexType(obj.Type()); m {
								ld := &lockDecl{obj: obj, file: f, pos: s}
								args, ok := commentGroupArgs(s.Doc, "lock")
								if !ok {
									args, ok = commentGroupArgs(s.Comment, "lock")
								}
								if !ok {
									args, ok = commentGroupArgs(gd.Doc, "lock")
								}
								parseLockArgs(ld, args, ok)
								out = append(out, ld)
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file.Path != out[j].file.Path {
			return out[i].file.Path < out[j].file.Path
		}
		return out[i].pos.Pos() < out[j].pos.Pos()
	})
	return out
}

func parseLockArgs(ld *lockDecl, args []string, present bool) {
	if !present {
		return
	}
	if len(args) != 2 {
		ld.err = "//ldb:lock needs a name and a rank"
		return
	}
	rank, err := strconv.Atoi(args[1])
	if err != nil {
		ld.err = "//ldb:lock rank " + strconv.Quote(args[1]) + " is not an integer"
		return
	}
	ld.name, ld.rank, ld.ok = args[0], rank, true
}
