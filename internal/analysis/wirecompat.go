package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// The wirecompat analyzer keeps reply bodies append-only: a field may
// only ever be appended, never reordered or inserted mid-struct,
// because every offset before the append point is frozen the day a
// reader ships. A struct opts in with:
//
//	//ldb:wire-body <wirename> size=<total>
//
// on its declaration, and every field carries its frozen byte offset as
// a trailing comment:
//
//	Steps int64 //ldb:off 0
//
// The analyzer recomputes each offset from the declaration order and
// the fixed wire widths (int64/uint64/float64 = 8, int32/uint32/
// float32 = 4, int16/uint16 = 2, int8/uint8/byte/bool = 1): a mismatch
// is precisely a reorder or a mid-struct insertion, reported against
// the field that moved. `size` must equal the computed total. The
// wirename must exist in the package's //ldb:kind-table when one is
// declared, pinning each body to its message kind.
//
// Encoder/decoder symmetry: within the declaring package, a function
// that references the struct's fields and calls binary.LittleEndian's
// Put* writers is an encoder; one that references the fields and calls
// the Uint* readers is a decoder. Every wire body must have at least
// one of each, and each encoder and decoder must touch every field —
// an appended field that one side forgot is a diagnostic, not a silent
// short read.

type wireBody struct {
	pkg    *Pkg
	file   *File
	name   string // wire name from the directive
	size   int    // declared total size
	spec   *ast.TypeSpec
	obj    types.Object // the struct type object
	fields []wireField
	node   ast.Node
}

type wireField struct {
	obj    types.Object
	field  *ast.Field
	name   string
	width  int
	off    int  // declared //ldb:off
	hasOff bool // the field carries //ldb:off at all
}

func runWirecompat(r *Repo) []Diagnostic {
	if r.Info == nil {
		return nil
	}
	var diags []Diagnostic
	add := func(n ast.Node, format string, args ...any) {
		path, line, col := r.Position(n.Pos())
		diags = append(diags, Diagnostic{
			Analyzer: "wirecompat", Path: path, Line: line, Col: col,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	for _, p := range r.Pkgs {
		var bodies []*wireBody
		for _, f := range p.Files {
			for _, decl := range f.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				args, _, ok := commentGroupArgs(gd.Doc, "wire-body")
				if !ok {
					continue
				}
				wb, errs := r.parseWireBody(p, f, gd, args)
				for _, e := range errs {
					add(gd, "%s", e)
				}
				if wb != nil {
					bodies = append(bodies, wb)
				}
			}
		}
		if len(bodies) == 0 {
			continue
		}
		kt, _ := r.findKindTable(p) // its own diagnostics belong to wireproto
		for _, wb := range bodies {
			diags = append(diags, r.checkWireBody(wb, kt)...)
			diags = append(diags, r.checkWireSymmetry(wb)...)
		}
	}
	return diags
}

// parseWireBody parses one //ldb:wire-body struct declaration.
func (r *Repo) parseWireBody(p *Pkg, f *File, gd *ast.GenDecl, args []string) (*wireBody, []string) {
	var errs []string
	wb := &wireBody{pkg: p, file: f, node: gd, size: -1}
	if len(args) == 0 {
		return nil, []string{"//ldb:wire-body needs a wire name"}
	}
	wb.name = args[0]
	for _, a := range args[1:] {
		k, v, ok := strings.Cut(a, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil || n < 0 {
			errs = append(errs, fmt.Sprintf("//ldb:wire-body: bad argument %q", a))
			continue
		}
		switch k {
		case "size":
			wb.size = n
		default:
			errs = append(errs, fmt.Sprintf("//ldb:wire-body: unknown argument %q", a))
		}
	}
	if wb.size < 0 {
		errs = append(errs, "//ldb:wire-body needs size=<total bytes>")
	}
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return nil, append(errs, "//ldb:wire-body must annotate a struct type")
		}
		wb.spec = ts
		wb.obj = r.Info.Defs[ts.Name]
		for _, fld := range st.Fields.List {
			for _, nm := range fld.Names {
				wf := wireField{obj: r.Info.Defs[nm], field: fld, name: nm.Name, width: -1, off: -1}
				if tv, ok := wf.obj.(*types.Var); ok {
					wf.width = wireWidth(tv.Type())
				}
				if offArgs, _, ok := commentGroupArgs(fld.Comment, "off"); ok {
					wf.hasOff = true
					if len(offArgs) == 1 {
						if n, err := strconv.Atoi(offArgs[0]); err == nil && n >= 0 {
							wf.off = n
						}
					}
				}
				wb.fields = append(wb.fields, wf)
			}
		}
		break // one type per //ldb:wire-body declaration
	}
	if wb.spec == nil {
		return nil, append(errs, "//ldb:wire-body must annotate a type declaration")
	}
	return wb, errs
}

// wireWidth is the frozen wire width of a field type, or -1 when the
// type has no fixed width (slices, strings, structs...).
func wireWidth(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return -1
	}
	switch b.Kind() {
	case types.Int64, types.Uint64, types.Float64:
		return 8
	case types.Int32, types.Uint32, types.Float32:
		return 4
	case types.Int16, types.Uint16:
		return 2
	case types.Int8, types.Uint8, types.Bool:
		return 1
	}
	return -1
}

func (r *Repo) checkWireBody(wb *wireBody, kt *kindTable) []Diagnostic {
	var diags []Diagnostic
	add := func(n ast.Node, format string, args ...any) {
		path, line, col := r.Position(n.Pos())
		diags = append(diags, Diagnostic{
			Analyzer: "wirecompat", Path: path, Line: line, Col: col,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	if kt != nil {
		found := false
		for _, e := range kt.entries {
			if e.name == wb.name {
				found = true
				break
			}
		}
		if !found {
			add(wb.node, "wire body %q names no kind in the package's kind table", wb.name)
		}
	}
	off := 0
	for _, wf := range wb.fields {
		if wf.width < 0 {
			add(wf.field, "wire body %q field %s has no fixed wire width", wb.name, wf.name)
			return diags // offsets below here are meaningless
		}
		switch {
		case !wf.hasOff:
			add(wf.field, "wire body %q field %s needs a trailing //ldb:off %d", wb.name, wf.name, off)
		case wf.off < 0:
			add(wf.field, "wire body %q field %s: //ldb:off needs one non-negative byte offset", wb.name, wf.name)
		case wf.off != off:
			add(wf.field, "wire body %q field %s declares offset %d but sits at %d: bodies are append-only (reordering or mid-struct insertion breaks shipped readers)",
				wb.name, wf.name, wf.off, off)
		}
		off += wf.width
	}
	if wb.size >= 0 && off != wb.size {
		add(wb.node, "wire body %q computes to %d bytes, directive says size=%d", wb.name, off, wb.size)
	}
	return diags
}

// checkWireSymmetry finds the body's encoders and decoders in its
// package and requires each side to exist and to touch every field.
func (r *Repo) checkWireSymmetry(wb *wireBody) []Diagnostic {
	var diags []Diagnostic
	add := func(n ast.Node, format string, args ...any) {
		path, line, col := r.Position(n.Pos())
		diags = append(diags, Diagnostic{
			Analyzer: "wirecompat", Path: path, Line: line, Col: col,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	fieldObjs := make(map[types.Object]string)
	for _, wf := range wb.fields {
		if wf.obj != nil {
			fieldObjs[wf.obj] = wf.name
		}
	}
	if len(fieldObjs) == 0 {
		return nil
	}

	type side struct {
		fn      *ast.FuncDecl
		touched map[types.Object]bool
	}
	var encoders, decoders []side
	for _, f := range wb.pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			touched := make(map[types.Object]bool)
			writes, reads := false, false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.Ident:
					if obj := r.Info.Uses[e]; obj != nil && fieldObjs[obj] != "" {
						touched[obj] = true
					}
				case *ast.CallExpr:
					if name, ok := byteOrderCall(r, e); ok {
						if strings.HasPrefix(name, "Put") || strings.HasPrefix(name, "Append") {
							writes = true
						} else {
							reads = true
						}
					}
				}
				return true
			})
			if len(touched) == 0 {
				continue
			}
			if writes {
				encoders = append(encoders, side{fd, touched})
			}
			if reads {
				decoders = append(decoders, side{fd, touched})
			}
		}
	}

	if len(encoders) == 0 {
		add(wb.node, "wire body %q has no encoder (no function touches its fields and writes binary.LittleEndian)", wb.name)
	}
	if len(decoders) == 0 {
		add(wb.node, "wire body %q has no decoder (no function touches its fields and reads binary.LittleEndian)", wb.name)
	}
	check := func(kind string, ss []side) {
		for _, s := range ss {
			for _, wf := range wb.fields {
				if wf.obj != nil && !s.touched[wf.obj] {
					add(s.fn, "%s %s of wire body %q misses field %s: both sides must cover every field",
						kind, s.fn.Name.Name, wb.name, wf.name)
				}
			}
		}
	}
	check("encoder", encoders)
	check("decoder", decoders)
	return diags
}

// byteOrderCall resolves call as a method on binary.LittleEndian or
// binary.BigEndian (PutUint32, Uint64, AppendUint16, ...), returning
// the method name.
func byteOrderCall(r *Repo, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := r.Info.Uses[inner.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/binary" {
		return "", false
	}
	if inner.Sel.Name != "LittleEndian" && inner.Sel.Name != "BigEndian" {
		return "", false
	}
	return sel.Sel.Name, true
}
