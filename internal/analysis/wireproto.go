package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The wireproto analyzer proves the nub protocol's symmetry and
// exhaustiveness properties over the package that defines the message
// kinds. The protocol package declares its single source of truth with
// two markers:
//
//	//ldb:kind-table      on the map from kind constant to kindInfo
//	                      (name, request, space, idempotent, reply)
//	//ldb:dispatch-table  on the server's kind-indexed handler table
//
// and the analyzer then checks, for the kind type those tables are
// keyed by:
//
//   - totality: every constant of the kind type is a key in the kind
//     table, with a non-empty, unique wire name (this is the String()
//     and stats entry);
//   - every request kind has a server dispatch arm — a registration
//     into the dispatch table, or a case in the connection loop
//     (func Serve), where the control messages that own the connection
//     must live;
//   - every request kind has a client encoder: a reference from a
//     method of the client side (receiver Client or Batch);
//   - a pre-dispatch validation path exists (a function returning
//     error that consults the kind table), and every read of the
//     dispatch table happens after a call to it;
//   - every switch over the kind type, anywhere in the module, is
//     exhaustive over the table or carries a non-empty default (the
//     server's default replies MError; a bare fallthrough default
//     would silently drop unknown kinds).

// kindEntry is one parsed kind-table entry.
type kindEntry struct {
	obj     *types.Const
	name    string
	request bool
	pos     ast.Node
}

// kindTable is one parsed //ldb:kind-table declaration.
type kindTable struct {
	pkg      *Pkg
	tableObj types.Object // the table variable
	keyType  types.Type   // the kind type
	entries  []*kindEntry
	node     ast.Node
}

func runWireproto(r *Repo) []Diagnostic {
	var diags []Diagnostic
	var tables []*kindTable
	for _, p := range r.Pkgs {
		t, ds := r.findKindTable(p)
		diags = append(diags, ds...)
		if t != nil {
			tables = append(tables, t)
		}
	}
	for _, t := range tables {
		diags = append(diags, r.checkKindTable(t)...)
		diags = append(diags, r.checkKindSwitches(t)...)
	}
	// A dispatch table without a kind table has nothing to validate
	// registrations against.
	for _, p := range r.Pkgs {
		hasTable := false
		for _, t := range tables {
			if t.pkg == p {
				hasTable = true
			}
		}
		if hasTable {
			continue
		}
		for _, f := range p.Files {
			for _, d := range markedDecls(f, "dispatch-table") {
				path, line, col := r.Position(d.Pos())
				diags = append(diags, Diagnostic{
					Analyzer: "wireproto", Path: path, Line: line, Col: col,
					Msg: "//ldb:dispatch-table without a //ldb:kind-table in the same package",
				})
			}
		}
	}
	return diags
}

// findKindTable locates and parses the package's //ldb:kind-table
// declaration, if any.
func (r *Repo) findKindTable(p *Pkg) (*kindTable, []Diagnostic) {
	if r.Info == nil {
		return nil, nil
	}
	var diags []Diagnostic
	bad := func(n ast.Node, format string, args ...any) {
		path, line, col := r.Position(n.Pos())
		diags = append(diags, Diagnostic{
			Analyzer: "wireproto", Path: path, Line: line, Col: col,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	var table *kindTable
	for _, f := range p.Files {
		for _, decl := range markedDecls(f, "kind-table") {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || len(gd.Specs) != 1 {
				bad(decl, "//ldb:kind-table must mark a single var declaration")
				continue
			}
			vs, ok := gd.Specs[0].(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
				bad(decl, "//ldb:kind-table must mark a single var with a literal value")
				continue
			}
			lit, ok := vs.Values[0].(*ast.CompositeLit)
			if !ok {
				bad(decl, "//ldb:kind-table value must be a map literal")
				continue
			}
			obj := r.Info.Defs[vs.Names[0]]
			mt, ok := obj.Type().Underlying().(*types.Map)
			if !ok {
				bad(decl, "//ldb:kind-table var must be a map keyed by the kind type")
				continue
			}
			if table != nil {
				bad(decl, "duplicate //ldb:kind-table (one per package)")
				continue
			}
			table = &kindTable{pkg: p, tableObj: obj, keyType: mt.Key(), node: decl}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				keyObj := r.exprConst(kv.Key)
				if keyObj == nil {
					bad(kv.Key, "kind-table key is not a kind constant")
					continue
				}
				e := &kindEntry{obj: keyObj, pos: kv}
				if vlit, ok := kv.Value.(*ast.CompositeLit); ok {
					for _, felt := range vlit.Elts {
						fkv, ok := felt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						fname, _ := fkv.Key.(*ast.Ident)
						if fname == nil {
							continue
						}
						tv, ok := r.Info.Types[fkv.Value]
						if !ok || tv.Value == nil {
							continue
						}
						switch fname.Name {
						case "name":
							if tv.Value.Kind() == constant.String {
								e.name = constant.StringVal(tv.Value)
							}
						case "request":
							e.request = constant.BoolVal(tv.Value)
						}
					}
				}
				table.entries = append(table.entries, e)
			}
		}
	}
	return table, diags
}

// exprConst resolves expr to the package-level constant it names.
func (r *Repo) exprConst(expr ast.Expr) *types.Const {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	c, _ := r.Info.Uses[id].(*types.Const)
	return c
}

func (r *Repo) checkKindTable(t *kindTable) []Diagnostic {
	var diags []Diagnostic
	add := func(n ast.Node, format string, args ...any) {
		path, line, col := r.Position(n.Pos())
		diags = append(diags, Diagnostic{
			Analyzer: "wireproto", Path: path, Line: line, Col: col,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	p := t.pkg

	// Wire names: present and unique.
	byName := make(map[string]*kindEntry)
	inTable := make(map[types.Object]*kindEntry)
	for _, e := range t.entries {
		inTable[e.obj] = e
		if e.name == "" {
			add(e.pos, "kind %s has no wire name in the kind table", e.obj.Name())
			continue
		}
		if prev, dup := byName[e.name]; dup {
			add(e.pos, "kinds %s and %s share the wire name %q", prev.obj.Name(), e.obj.Name(), e.name)
		}
		byName[e.name] = e
	}

	// Totality: every constant of the kind type is in the table.
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), t.keyType) {
			continue
		}
		if _, ok := inTable[c]; !ok {
			path, line, col := r.Position(c.Pos())
			diags = append(diags, Diagnostic{
				Analyzer: "wireproto", Path: path, Line: line, Col: col,
				Msg: fmt.Sprintf("kind %s missing from the kind table: it has no wire name and no validation entry", c.Name()),
			})
		}
	}

	// Dispatch table registrations and reads.
	dispatchObj, registered, dispatchNode := r.findDispatchTable(p, t)
	served := r.serveCases(p, t.keyType)

	// Client encoders: kind constants referenced from Client or Batch
	// methods.
	encoders := r.clientEncoderUses(p, t.keyType)

	for _, e := range t.entries {
		if !e.request {
			continue
		}
		if _, ok := registered[e.obj]; !ok && !served[e.obj] {
			add(e.pos, "request kind %s has no server dispatch arm: not registered in the dispatch table and not a case in Serve", e.obj.Name())
		}
		if !encoders[e.obj] {
			add(e.pos, "request kind %s has no client encoder: never referenced from a Client or Batch method", e.obj.Name())
		}
	}

	// Validation path: some function returning error must consult the
	// kind table, and dispatch-table reads must come after a call to it.
	validators := r.kindValidators(p, t)
	if len(validators) == 0 {
		add(t.node, "kind table has no validation path: no function returning error consults it")
	}
	if dispatchObj != nil {
		diags = append(diags, r.checkDispatchReads(p, dispatchObj, validators)...)
		_ = dispatchNode
	}
	return diags
}

// findDispatchTable locates the //ldb:dispatch-table var and the kind
// constants registered into it (assignments table[K] = handler).
// It returns the table object, the registration map (kind constant →
// handler function object), and the marked declaration.
func (r *Repo) findDispatchTable(p *Pkg, t *kindTable) (types.Object, map[types.Object]types.Object, ast.Node) {
	var tableObj types.Object
	var node ast.Node
	for _, f := range p.Files {
		for _, decl := range markedDecls(f, "dispatch-table") {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == 1 {
					tableObj = r.Info.Defs[vs.Names[0]]
					node = decl
				}
			}
		}
	}
	if tableObj == nil {
		return nil, nil, nil
	}
	registered := make(map[types.Object]types.Object)
	for _, f := range p.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				base, ok := ix.X.(*ast.Ident)
				if !ok || r.Info.Uses[base] != tableObj {
					continue
				}
				k := r.exprConst(ix.Index)
				if k == nil || !types.Identical(k.Type(), t.keyType) {
					continue
				}
				var h types.Object
				if i < len(as.Rhs) {
					h = r.funcObj(as.Rhs[i])
				}
				registered[k] = h
			}
			return true
		})
	}
	return tableObj, registered, node
}

// funcObj resolves expr — an identifier, selector, or method
// expression — to the function object it denotes.
func (r *Repo) funcObj(expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.Ident:
		if f, ok := r.Info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := r.Info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	case *ast.ParenExpr:
		return r.funcObj(e.X)
	}
	return nil
}

// serveCases collects the kind constants that appear as case values in
// switches inside a connection loop — a function named Serve, or a
// serveOne* helper such loops delegate single requests to (a
// multi-session server front end and the nub proper share one) — where
// the control messages that own the connection must be handled.
func (r *Repo) serveCases(p *Pkg, keyType types.Type) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Serve" && !strings.HasPrefix(fd.Name.Name, "serveOne") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, v := range cc.List {
					if c := r.exprConst(v); c != nil && types.Identical(c.Type(), keyType) {
						out[c] = true
					}
				}
				return true
			})
		}
	}
	return out
}

// clientEncoderUses collects the kind constants referenced from methods
// whose receiver is the client side of the protocol (Client or Batch).
func (r *Repo) clientEncoderUses(p *Pkg, keyType types.Type) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := recvBaseName(fd)
			if recv != "Client" && recv != "Batch" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if c, ok := r.Info.Uses[id].(*types.Const); ok && types.Identical(c.Type(), keyType) {
					out[c] = true
				}
				return true
			})
		}
	}
	return out
}

// recvBaseName returns the receiver's base type name ("Client" for
// func (c *Client) ...), or "".
func recvBaseName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// kindValidators finds the package's validation functions: functions
// returning error whose bodies consult the kind table.
func (r *Repo) kindValidators(p *Pkg, t *kindTable) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil {
				continue
			}
			returnsErr := false
			for _, res := range fd.Type.Results.List {
				if tv, ok := r.Info.Types[res.Type]; ok && tv.Type.String() == "error" {
					returnsErr = true
				}
			}
			if !returnsErr {
				continue
			}
			uses := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && r.Info.Uses[id] == t.tableObj {
					uses = true
				}
				return true
			})
			if uses {
				out[r.Info.Defs[fd.Name]] = true
			}
		}
	}
	return out
}

// checkDispatchReads requires every read of the dispatch table to sit
// in a function that first calls a validator: the handlers may assume
// operands are in range only because checkRequest ran.
func (r *Repo) checkDispatchReads(p *Pkg, tableObj types.Object, validators map[types.Object]bool) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Registration assignments (table[K] = h) are writes; find
			// reads: IndexExpr over the table not on an assignment LHS.
			lhs := make(map[ast.Expr]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						lhs[l] = true
					}
				}
				return true
			})
			var reads []*ast.IndexExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ix, ok := n.(*ast.IndexExpr)
				if !ok || lhs[ix] {
					return true
				}
				if base, ok := ix.X.(*ast.Ident); ok && r.Info.Uses[base] == tableObj {
					reads = append(reads, ix)
				}
				return true
			})
			if len(reads) == 0 {
				continue
			}
			firstCall := token.Pos(0)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if obj := r.funcObj(call.Fun); obj != nil && validators[obj] && (firstCall == 0 || call.Pos() < firstCall) {
					firstCall = call.Pos()
				}
				return true
			})
			for _, ix := range reads {
				if firstCall == 0 || ix.Pos() < firstCall {
					path, line, col := r.Position(ix.Pos())
					diags = append(diags, Diagnostic{
						Analyzer: "wireproto", Path: path, Line: line, Col: col,
						Msg: "dispatch table read without a prior validation call in the same function",
					})
				}
			}
		}
	}
	return diags
}

// checkKindSwitches checks every switch over the kind type, module
// wide: exhaustive over the kind table, or a non-empty default.
func (r *Repo) checkKindSwitches(t *kindTable) []Diagnostic {
	var diags []Diagnostic
	all := make(map[types.Object]bool)
	for _, e := range t.entries {
		all[e.obj] = true
	}
	for _, p := range r.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				tv, ok := r.Info.Types[sw.Tag]
				if !ok || !types.Identical(tv.Type, t.keyType) {
					return true
				}
				covered := make(map[types.Object]bool)
				var hasDefault, emptyDefault bool
				for _, stmt := range sw.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					if cc.List == nil {
						hasDefault = true
						emptyDefault = len(cc.Body) == 0
						continue
					}
					for _, v := range cc.List {
						if c := r.exprConst(v); c != nil {
							covered[c] = true
						}
					}
				}
				path, line, col := r.Position(sw.Pos())
				switch {
				case hasDefault && emptyDefault:
					diags = append(diags, Diagnostic{
						Analyzer: "wireproto", Path: path, Line: line, Col: col,
						Msg: "switch over message kinds has an empty default: unknown kinds must be answered, not dropped",
					})
				case !hasDefault:
					var missing []string
					for obj := range all {
						if !covered[obj] {
							missing = append(missing, obj.Name())
						}
					}
					if len(missing) > 0 {
						sort.Strings(missing)
						diags = append(diags, Diagnostic{
							Analyzer: "wireproto", Path: path, Line: line, Col: col,
							Msg: fmt.Sprintf("switch over message kinds is not exhaustive and has no default (missing %s)", strings.Join(missing, ", ")),
						})
					}
				}
				return true
			})
		}
	}
	return diags
}
