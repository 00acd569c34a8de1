package ps

import (
	"errors"
	"math"
)

// registerAll installs the built-in operators of the dialect.
func registerAll(in *Interp) {
	registerStackOps(in)
	registerArithOps(in)
	registerRelationalOps(in)
	registerControlOps(in)
	registerDictOps(in)
	registerArrayOps(in)
	registerConversionOps(in)
	registerIOOps(in)
	registerPrettyOps(in)
}

func registerStackOps(in *Interp) {
	in.Register("pop", func(in *Interp) error {
		_, err := in.Pop()
		return err
	})
	in.Register("exch", func(in *Interp) error {
		b, err := in.Pop()
		if err != nil {
			return err
		}
		a, err := in.Pop()
		if err != nil {
			return err
		}
		in.Push(b, a)
		return nil
	})
	in.Register("dup", func(in *Interp) error {
		o, err := in.Top()
		if err != nil {
			return err
		}
		in.Push(o)
		return nil
	})
	in.Register("copy", func(in *Interp) error {
		n, err := in.PopInt("copy")
		if err != nil {
			return err
		}
		if n < 0 || int(n) > len(in.Stack) {
			return &Error{Name: "rangecheck", Cmd: "copy"}
		}
		in.Stack = append(in.Stack, in.Stack[len(in.Stack)-int(n):]...)
		return nil
	})
	in.Register("index", func(in *Interp) error {
		n, err := in.PopInt("index")
		if err != nil {
			return err
		}
		if n < 0 || int(n) >= len(in.Stack) {
			return &Error{Name: "rangecheck", Cmd: "index"}
		}
		in.Push(in.Stack[len(in.Stack)-1-int(n)])
		return nil
	})
	in.Register("roll", func(in *Interp) error {
		j, err := in.PopInt("roll")
		if err != nil {
			return err
		}
		n, err := in.PopInt("roll")
		if err != nil {
			return err
		}
		if n < 0 || int(n) > len(in.Stack) {
			return &Error{Name: "rangecheck", Cmd: "roll"}
		}
		if n == 0 {
			return nil
		}
		seg := in.Stack[len(in.Stack)-int(n):]
		k := int(((j % n) + n) % n)
		rotated := make([]Object, 0, n)
		rotated = append(rotated, seg[int(n)-k:]...)
		rotated = append(rotated, seg[:int(n)-k]...)
		copy(seg, rotated)
		return nil
	})
	in.Register("clear", func(in *Interp) error {
		in.Stack = in.Stack[:0]
		return nil
	})
	in.Register("count", func(in *Interp) error {
		in.Push(Int(int64(len(in.Stack))))
		return nil
	})
	in.Register("mark", func(in *Interp) error {
		in.Push(Mark())
		return nil
	})
	in.Register("counttomark", func(in *Interp) error {
		for i := len(in.Stack) - 1; i >= 0; i-- {
			if in.Stack[i].Kind == KMark {
				in.Push(Int(int64(len(in.Stack) - 1 - i)))
				return nil
			}
		}
		return &Error{Name: "unmatchedmark", Cmd: "counttomark"}
	})
	in.Register("cleartomark", func(in *Interp) error {
		for i := len(in.Stack) - 1; i >= 0; i-- {
			if in.Stack[i].Kind == KMark {
				in.Stack = in.Stack[:i]
				return nil
			}
		}
		return &Error{Name: "unmatchedmark", Cmd: "cleartomark"}
	})
}

func numeric2(in *Interp, cmd string) (a, b Object, err error) {
	b, err = in.Pop()
	if err != nil {
		return
	}
	a, err = in.Pop()
	if err != nil {
		return
	}
	if !a.IsNumber() || !b.IsNumber() {
		err = typecheck(cmd, a)
	}
	return
}

func registerArithOps(in *Interp) {
	binop := func(name string, ifn func(a, b int64) int64, ffn func(a, b float64) float64) {
		in.Register(name, func(in *Interp) error {
			a, b, err := numeric2(in, name)
			if err != nil {
				return err
			}
			if a.Kind == KInt && b.Kind == KInt {
				in.Push(Int(ifn(a.I, b.I)))
			} else {
				in.Push(Real(ffn(a.Num(), b.Num())))
			}
			return nil
		})
	}
	binop("add", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })
	binop("sub", func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })
	binop("mul", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })
	in.Register("div", func(in *Interp) error {
		a, b, err := numeric2(in, "div")
		if err != nil {
			return err
		}
		if b.Num() == 0 {
			return &Error{Name: "undefinedresult", Cmd: "div"}
		}
		in.Push(Real(a.Num() / b.Num()))
		return nil
	})
	in.Register("idiv", func(in *Interp) error {
		b, err := in.PopInt("idiv")
		if err != nil {
			return err
		}
		a, err := in.PopInt("idiv")
		if err != nil {
			return err
		}
		if b == 0 {
			return &Error{Name: "undefinedresult", Cmd: "idiv"}
		}
		in.Push(Int(a / b))
		return nil
	})
	in.Register("mod", func(in *Interp) error {
		b, err := in.PopInt("mod")
		if err != nil {
			return err
		}
		a, err := in.PopInt("mod")
		if err != nil {
			return err
		}
		if b == 0 {
			return &Error{Name: "undefinedresult", Cmd: "mod"}
		}
		in.Push(Int(a % b))
		return nil
	})
	in.Register("neg", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KInt:
			in.Push(Int(-o.I))
		case KReal:
			in.Push(Real(-o.R))
		default:
			return typecheck("neg", o)
		}
		return nil
	})
	in.Register("abs", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KInt:
			if o.I < 0 {
				o.I = -o.I
			}
			in.Push(o)
		case KReal:
			in.Push(Real(math.Abs(o.R)))
		default:
			return typecheck("abs", o)
		}
		return nil
	})
	in.Register("sqrt", func(in *Interp) error {
		v, err := in.PopNum("sqrt")
		if err != nil {
			return err
		}
		if v < 0 {
			return &Error{Name: "rangecheck", Cmd: "sqrt"}
		}
		in.Push(Real(math.Sqrt(v)))
		return nil
	})
	roundop := func(name string, fn func(float64) float64) {
		in.Register(name, func(in *Interp) error {
			o, err := in.Pop()
			if err != nil {
				return err
			}
			switch o.Kind {
			case KInt:
				in.Push(o)
			case KReal:
				in.Push(Real(fn(o.R)))
			default:
				return typecheck(name, o)
			}
			return nil
		})
	}
	roundop("truncate", math.Trunc)
	roundop("round", math.Round)
	roundop("floor", math.Floor)
	roundop("ceiling", math.Ceil)
	in.Register("bitshift", func(in *Interp) error {
		sh, err := in.PopInt("bitshift")
		if err != nil {
			return err
		}
		v, err := in.PopInt("bitshift")
		if err != nil {
			return err
		}
		if sh >= 0 {
			in.Push(Int(v << uint(sh&63)))
		} else {
			in.Push(Int(int64(uint64(v) >> uint((-sh)&63))))
		}
		return nil
	})
	boolOrIntOp := func(name string, bfn func(a, b bool) bool, ifn func(a, b int64) int64) {
		in.Register(name, func(in *Interp) error {
			b, err := in.Pop()
			if err != nil {
				return err
			}
			a, err := in.Pop()
			if err != nil {
				return err
			}
			switch {
			case a.Kind == KBool && b.Kind == KBool:
				in.Push(Boolean(bfn(a.B, b.B)))
			case a.Kind == KInt && b.Kind == KInt:
				in.Push(Int(ifn(a.I, b.I)))
			default:
				return typecheck(name, a)
			}
			return nil
		})
	}
	boolOrIntOp("and", func(a, b bool) bool { return a && b }, func(a, b int64) int64 { return a & b })
	boolOrIntOp("or", func(a, b bool) bool { return a || b }, func(a, b int64) int64 { return a | b })
	boolOrIntOp("xor", func(a, b bool) bool { return a != b }, func(a, b int64) int64 { return a ^ b })
	in.Register("not", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KBool:
			in.Push(Boolean(!o.B))
		case KInt:
			in.Push(Int(^o.I))
		default:
			return typecheck("not", o)
		}
		return nil
	})
}

func registerRelationalOps(in *Interp) {
	in.Register("eq", func(in *Interp) error {
		b, err := in.Pop()
		if err != nil {
			return err
		}
		a, err := in.Pop()
		if err != nil {
			return err
		}
		in.Push(Boolean(Equal(a, b)))
		return nil
	})
	in.Register("ne", func(in *Interp) error {
		b, err := in.Pop()
		if err != nil {
			return err
		}
		a, err := in.Pop()
		if err != nil {
			return err
		}
		in.Push(Boolean(!Equal(a, b)))
		return nil
	})
	cmp := func(name string, want func(int) bool) {
		in.Register(name, func(in *Interp) error {
			b, err := in.Pop()
			if err != nil {
				return err
			}
			a, err := in.Pop()
			if err != nil {
				return err
			}
			var c int
			switch {
			case a.IsNumber() && b.IsNumber():
				av, bv := a.Num(), b.Num()
				switch {
				case av < bv:
					c = -1
				case av > bv:
					c = 1
				}
			case a.Kind == KString && b.Kind == KString:
				switch {
				case a.S < b.S:
					c = -1
				case a.S > b.S:
					c = 1
				}
			default:
				return typecheck(name, a)
			}
			in.Push(Boolean(want(c)))
			return nil
		})
	}
	cmp("gt", func(c int) bool { return c > 0 })
	cmp("ge", func(c int) bool { return c >= 0 })
	cmp("lt", func(c int) bool { return c < 0 })
	cmp("le", func(c int) bool { return c <= 0 })
}

func registerControlOps(in *Interp) {
	in.Register("exec", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		return in.execValue(o)
	})
	in.Register("if", func(in *Interp) error {
		proc, err := in.PopProc("if")
		if err != nil {
			return err
		}
		cond, err := in.PopBool("if")
		if err != nil {
			return err
		}
		if cond {
			return in.runProc(proc)
		}
		return nil
	})
	in.Register("ifelse", func(in *Interp) error {
		pelse, err := in.PopProc("ifelse")
		if err != nil {
			return err
		}
		pthen, err := in.PopProc("ifelse")
		if err != nil {
			return err
		}
		cond, err := in.PopBool("ifelse")
		if err != nil {
			return err
		}
		if cond {
			return in.runProc(pthen)
		}
		return in.runProc(pelse)
	})
	in.Register("for", func(in *Interp) error {
		proc, err := in.PopProc("for")
		if err != nil {
			return err
		}
		limit, err := in.PopNum("for")
		if err != nil {
			return err
		}
		incr, err := in.PopNum("for")
		if err != nil {
			return err
		}
		initial, err := in.PopNum("for")
		if err != nil {
			return err
		}
		if incr == 0 {
			return &Error{Name: "rangecheck", Cmd: "for (zero increment)"}
		}
		push := func(v float64) {
			if v == math.Trunc(v) && math.Abs(v) < 1e18 {
				in.Push(Int(int64(v)))
			} else {
				in.Push(Real(v))
			}
		}
		for v := initial; (incr > 0 && v <= limit) || (incr < 0 && v >= limit); v += incr {
			push(v)
			if err := in.runProc(proc); err != nil {
				if errors.Is(err, errExit) {
					return nil
				}
				return err
			}
		}
		return nil
	})
	in.Register("repeat", func(in *Interp) error {
		proc, err := in.PopProc("repeat")
		if err != nil {
			return err
		}
		n, err := in.PopInt("repeat")
		if err != nil {
			return err
		}
		if n < 0 {
			return &Error{Name: "rangecheck", Cmd: "repeat"}
		}
		for i := int64(0); i < n; i++ {
			if err := in.runProc(proc); err != nil {
				if errors.Is(err, errExit) {
					return nil
				}
				return err
			}
		}
		return nil
	})
	in.Register("loop", func(in *Interp) error {
		proc, err := in.PopProc("loop")
		if err != nil {
			return err
		}
		for {
			if err := in.runProc(proc); err != nil {
				if errors.Is(err, errExit) {
					return nil
				}
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
	})
	in.Register("exit", func(in *Interp) error { return errExit })
	in.Register("stop", func(in *Interp) error { return errStop })
	in.Register("stopped", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		stopped, err := in.Stopped(o)
		if err != nil {
			return err
		}
		in.Push(Boolean(stopped))
		return nil
	})
	in.Register("forall", func(in *Interp) error {
		proc, err := in.PopProc("forall")
		if err != nil {
			return err
		}
		o, err := in.Pop()
		if err != nil {
			return err
		}
		runBody := func(push ...Object) error {
			in.Push(push...)
			return in.runProc(proc)
		}
		switch o.Kind {
		case KArray:
			for _, e := range o.A.E {
				if err := runBody(e); err != nil {
					if errors.Is(err, errExit) {
						return nil
					}
					return err
				}
			}
		case KString:
			for _, c := range []byte(o.S) {
				if err := runBody(Int(int64(c))); err != nil {
					if errors.Is(err, errExit) {
						return nil
					}
					return err
				}
			}
		case KDict:
			err := o.D.ForAll(func(k, v Object) error { return runBody(k, v) })
			if errors.Is(err, errExit) {
				return nil
			}
			return err
		default:
			return typecheck("forall", o)
		}
		return nil
	})
}

// maxDictHint caps the size the `dict` operator preallocates.
const maxDictHint = 1 << 12

func registerDictOps(in *Interp) {
	in.Register("dict", func(in *Interp) error {
		n, err := in.PopInt("dict")
		if err != nil {
			return err
		}
		// The operand is only a hint, and an untrusted one: a table
		// asking for a billion entries gets a dictionary that grows.
		in.Push(DictObj(NewDict(int(min(n, maxDictHint)))))
		return nil
	})
	in.Register("<<", func(in *Interp) error {
		in.Push(Mark())
		return nil
	})
	in.Register(">>", func(in *Interp) error {
		// Count to the mark first, so the dictionary is allocated once
		// at its final size. The operands and the mark leave the stack
		// whether or not the dictionary can be built.
		m := len(in.Stack) - 1
		for m >= 0 && in.Stack[m].Kind != KMark {
			m--
		}
		if m < 0 {
			in.Stack = in.Stack[:0]
			return &Error{Name: "unmatchedmark", Cmd: ">>"}
		}
		pairs := in.Stack[m+1:]
		in.Stack = in.Stack[:m]
		if len(pairs)%2 != 0 {
			return &Error{Name: "rangecheck", Cmd: ">> (odd number of operands)"}
		}
		d := NewDict(len(pairs) / 2)
		for i := 0; i < len(pairs); i += 2 {
			if err := d.Put(pairs[i], pairs[i+1]); err != nil {
				return err
			}
		}
		in.Push(DictObj(d))
		return nil
	})
	in.Register("def", func(in *Interp) error {
		val, err := in.Pop()
		if err != nil {
			return err
		}
		key, err := in.Pop()
		if err != nil {
			return err
		}
		return in.DStack[len(in.DStack)-1].Put(key, val)
	})
	in.Register("load", func(in *Interp) error {
		key, err := in.Pop()
		if err != nil {
			return err
		}
		if key.Kind != KName && key.Kind != KString {
			return typecheck("load", key)
		}
		v, ok := in.Lookup(key.S)
		if !ok {
			return undefined(key.S)
		}
		in.Push(v)
		return nil
	})
	in.Register("store", func(in *Interp) error {
		val, err := in.Pop()
		if err != nil {
			return err
		}
		key, err := in.Pop()
		if err != nil {
			return err
		}
		if key.Kind == KName || key.Kind == KString {
			if _, d, ok := in.LookupWhere(key.S); ok {
				return d.Put(key, val)
			}
		}
		return in.DStack[len(in.DStack)-1].Put(key, val)
	})
	in.Register("begin", func(in *Interp) error {
		d, err := in.PopDict("begin")
		if err != nil {
			return err
		}
		in.DStack = append(in.DStack, d)
		return nil
	})
	in.Register("end", func(in *Interp) error {
		if len(in.DStack) <= 2 {
			return &Error{Name: "dictstackunderflow", Cmd: "end"}
		}
		in.DStack = in.DStack[:len(in.DStack)-1]
		return nil
	})
	in.Register("currentdict", func(in *Interp) error {
		in.Push(DictObj(in.DStack[len(in.DStack)-1]))
		return nil
	})
	in.Register("countdictstack", func(in *Interp) error {
		in.Push(Int(int64(len(in.DStack))))
		return nil
	})
	in.Register("known", func(in *Interp) error {
		key, err := in.Pop()
		if err != nil {
			return err
		}
		d, err := in.PopDict("known")
		if err != nil {
			return err
		}
		_, ok := d.Get(key)
		in.Push(Boolean(ok))
		return nil
	})
	in.Register("where", func(in *Interp) error {
		key, err := in.Pop()
		if err != nil {
			return err
		}
		if key.Kind != KName && key.Kind != KString {
			return typecheck("where", key)
		}
		if _, d, ok := in.LookupWhere(key.S); ok {
			in.Push(DictObj(d), Boolean(true))
		} else {
			in.Push(Boolean(false))
		}
		return nil
	})
	in.Register("undef", func(in *Interp) error {
		key, err := in.Pop()
		if err != nil {
			return err
		}
		d, err := in.PopDict("undef")
		if err != nil {
			return err
		}
		d.Undef(key)
		return nil
	})
}

func registerArrayOps(in *Interp) {
	in.Register("array", func(in *Interp) error {
		n, err := in.PopInt("array")
		if err != nil {
			return err
		}
		if n < 0 {
			return &Error{Name: "rangecheck", Cmd: "array"}
		}
		in.Push(ArrayObj(make([]Object, n)...))
		return nil
	})
	in.Register("[", func(in *Interp) error {
		in.Push(Mark())
		return nil
	})
	in.Register("]", func(in *Interp) error {
		var elems []Object
		for {
			o, err := in.Pop()
			if err != nil {
				return &Error{Name: "unmatchedmark", Cmd: "]"}
			}
			if o.Kind == KMark {
				break
			}
			elems = append(elems, o)
		}
		// Reverse into stack order.
		for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
			elems[i], elems[j] = elems[j], elems[i]
		}
		in.Push(ArrayObj(elems...))
		return nil
	})
	in.Register("aload", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		if o.Kind != KArray {
			return typecheck("aload", o)
		}
		in.Push(o.A.E...)
		in.Push(o)
		return nil
	})
	in.Register("astore", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		if o.Kind != KArray {
			return typecheck("astore", o)
		}
		n := len(o.A.E)
		if len(in.Stack) < n {
			return &Error{Name: "stackunderflow", Cmd: "astore"}
		}
		copy(o.A.E, in.Stack[len(in.Stack)-n:])
		in.Stack = in.Stack[:len(in.Stack)-n]
		in.Push(o)
		return nil
	})
	in.Register("length", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KArray:
			in.Push(Int(int64(len(o.A.E))))
		case KString, KName:
			in.Push(Int(int64(len(o.S))))
		case KDict:
			in.Push(Int(int64(o.D.Len())))
		default:
			return typecheck("length", o)
		}
		return nil
	})
	in.Register("get", func(in *Interp) error {
		key, err := in.Pop()
		if err != nil {
			return err
		}
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KArray:
			if key.Kind != KInt {
				return typecheck("get", key)
			}
			if key.I < 0 || key.I >= int64(len(o.A.E)) {
				return &Error{Name: "rangecheck", Cmd: "get"}
			}
			in.Push(o.A.E[key.I])
		case KString:
			if key.Kind != KInt {
				return typecheck("get", key)
			}
			if key.I < 0 || key.I >= int64(len(o.S)) {
				return &Error{Name: "rangecheck", Cmd: "get"}
			}
			in.Push(Int(int64(o.S[key.I])))
		case KDict:
			v, ok := o.D.Get(key)
			if !ok {
				return undefined("get: " + Cvs(key))
			}
			in.Push(v)
		default:
			return typecheck("get", o)
		}
		return nil
	})
	in.Register("put", func(in *Interp) error {
		val, err := in.Pop()
		if err != nil {
			return err
		}
		key, err := in.Pop()
		if err != nil {
			return err
		}
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KArray:
			if key.Kind != KInt {
				return typecheck("put", key)
			}
			if key.I < 0 || key.I >= int64(len(o.A.E)) {
				return &Error{Name: "rangecheck", Cmd: "put"}
			}
			o.A.E[key.I] = val
		case KDict:
			return o.D.Put(key, val)
		case KString:
			// Strings are immutable in the dialect (§5).
			return &Error{Name: "invalidaccess", Cmd: "put (strings are immutable)"}
		default:
			return typecheck("put", o)
		}
		return nil
	})
}

func registerConversionOps(in *Interp) {
	in.Register("cvx", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		o.Exec = true
		in.Push(o)
		return nil
	})
	in.Register("cvlit", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		o.Exec = false
		in.Push(o)
		return nil
	})
	in.Register("xcheck", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		in.Push(Boolean(o.Exec))
		return nil
	})
	in.Register("cvi", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KInt:
			in.Push(o)
		case KReal:
			in.Push(Int(int64(math.Trunc(o.R))))
		case KString:
			n, ok := parseNumber(o.S)
			if !ok {
				return typecheck("cvi", o)
			}
			if n.Kind == KReal {
				n = Int(int64(math.Trunc(n.R)))
			}
			in.Push(n)
		default:
			return typecheck("cvi", o)
		}
		return nil
	})
	in.Register("cvr", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		switch o.Kind {
		case KInt:
			in.Push(Real(float64(o.I)))
		case KReal:
			in.Push(o)
		case KString:
			n, ok := parseNumber(o.S)
			if !ok {
				return typecheck("cvr", o)
			}
			in.Push(Real(n.Num()))
		default:
			return typecheck("cvr", o)
		}
		return nil
	})
	in.Register("cvn", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		if o.Kind != KString {
			return typecheck("cvn", o)
		}
		n := LitName(o.S)
		n.Exec = o.Exec
		in.Push(n)
		return nil
	})
	in.Register("cvs", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		in.Push(Str(Cvs(o)))
		return nil
	})
	in.Register("type", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		in.Push(ExecName(o.TypeName()))
		return nil
	})
	in.Register("bind", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		if o.Kind == KArray && o.Exec {
			in.bindProc(o)
		}
		in.Push(o)
		return nil
	})
}

// bindProc replaces executable names bound to operators with the
// operators themselves, recursively through nested procedures.
func (in *Interp) bindProc(p Object) {
	for i, e := range p.A.E {
		switch {
		case e.Kind == KName && e.Exec:
			if v, ok := in.Lookup(e.S); ok && v.Kind == KOperator {
				p.A.E[i] = v
			}
		case e.Kind == KArray && e.Exec:
			in.bindProc(e)
		}
	}
}

func registerIOOps(in *Interp) {
	in.Register("print", func(in *Interp) error {
		s, err := in.PopString("print")
		if err != nil {
			return err
		}
		in.printf("%s", s)
		return nil
	})
	in.Register("=", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		in.printf("%s\n", Cvs(o))
		return nil
	})
	in.Register("==", func(in *Interp) error {
		o, err := in.Pop()
		if err != nil {
			return err
		}
		in.printf("%s\n", Format(o))
		return nil
	})
	in.Register("pstack", func(in *Interp) error {
		in.printf("%s", in.StackDump())
		return nil
	})
	in.Register("stack", func(in *Interp) error {
		for i := len(in.Stack) - 1; i >= 0; i-- {
			in.printf("%s\n", Cvs(in.Stack[i]))
		}
		return nil
	})
	in.Register("flush", func(in *Interp) error { return nil })
}
