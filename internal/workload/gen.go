package workload

import (
	"fmt"
	"strings"
)

// gen.go is the seeded scenario generator: Generate(seed) expands a
// 64-bit seed into a random-but-valid C program plus the debug script
// the differential oracle replays against it. The same seed must yield
// byte-identical output forever — the corpus cache keys on the program
// text — so randomness comes from a private splitmix64, not the
// standard library's generator (whose stream may change between Go
// releases).
//
// Every generated program obeys safety rules that make its behavior a
// pure function of the source on all targets:
//   - all stored integers are masked to 20 bits, multiplication
//     operands to 10, so no expression overflows int32;
//   - divisors and shift counts are nonzero constants;
//   - loops have constant trip counts and functions call only
//     lower-numbered functions, so execution terminates;
//   - no pointer is ever printed, so output and debug transcripts are
//     address-free and must match across ISAs byte for byte.

// Scenario is one generated differential test case: the program and
// the debug session to run against it.
type Scenario struct {
	Seed   int64
	Name   string
	Source string

	// The debug script: set a breakpoint at BreakProc's stopping point
	// BreakStop, and at each of up to MaxHits stops print Prints,
	// evaluate Evals, take Steps source-level steps, and resume. Then
	// clear breakpoints and run to exit.
	BreakProc string
	BreakStop int
	MaxHits   int
	Prints    []string
	Evals     []string
	Steps     int
}

// rng is splitmix64 (Steele et al.), chosen for stability and speed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// n returns a value in [0, n).
func (r *rng) n(n int) int { return int(r.next() % uint64(n)) }

// rangeN returns a value in [lo, hi].
func (r *rng) rangeN(lo, hi int) int { return lo + r.n(hi-lo+1) }

// chance reports true pct percent of the time.
func (r *rng) chance(pct int) bool { return r.n(100) < pct }

func (r *rng) pick(ss []string) string { return ss[r.n(len(ss))] }

// valMask keeps every stored integer in [0, 2^20).
const valMask = "1048575"

// pgen accumulates one program.
type pgen struct {
	r *rng
	b *strings.Builder

	globals []string // int globals
	arrays  []genArr // int arrays, power-of-two lengths
	mats    []genMat // 2-D int arrays
	funcs   []genFn  // defined so far; bodies call only earlier ones
	structs bool     // the program declares struct pair
	fptr    bool     // the program declares a function-pointer global

	locals []string // of the function being generated
	depth  int      // statement nesting depth
	calls  int      // call-expression budget for the current function
}

type genArr struct {
	name string
	len  int // power of two
}

type genMat struct {
	name       string
	rows, cols int
}

type genFn struct {
	name   string
	params []string
	// structArg/structRet mark the struct-by-value helpers.
	structArg, structRet bool
}

// Generate expands seed into a scenario. The result is deterministic:
// Generate(s) == Generate(s) byte for byte.
func Generate(seed int64) Scenario {
	g := &pgen{r: &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567}, b: &strings.Builder{}}
	// Warm the stream so small seeds diverge quickly.
	g.r.next()
	g.r.next()

	g.structs = g.r.chance(70)
	g.fptr = g.r.chance(60)

	g.emitTypesAndGlobals()
	g.emitHelpers()
	nf := g.r.rangeN(2, 4)
	for i := 0; i < nf; i++ {
		g.emitFunc(i)
	}
	sc := g.emitMain()
	sc.Seed = seed
	sc.Name = fmt.Sprintf("s%d", seed)
	sc.Source = g.b.String()
	return sc
}

func (g *pgen) emitTypesAndGlobals() {
	if g.structs {
		g.b.WriteString("struct pair { int fa; int fb; };\n")
	}
	ng := g.r.rangeN(2, 4)
	for i := 0; i < ng; i++ {
		name := fmt.Sprintf("g%d", i)
		g.globals = append(g.globals, name)
		fmt.Fprintf(g.b, "int %s = %d;\n", name, g.r.n(1024))
	}
	na := g.r.rangeN(1, 2)
	for i := 0; i < na; i++ {
		a := genArr{name: fmt.Sprintf("arr%d", i), len: 1 << g.r.rangeN(3, 5)}
		g.arrays = append(g.arrays, a)
		fmt.Fprintf(g.b, "int %s[%d];\n", a.name, a.len)
	}
	if g.r.chance(60) {
		m := genMat{name: "mat0", rows: 1 << g.r.rangeN(1, 2), cols: 1 << g.r.rangeN(2, 3)}
		g.mats = append(g.mats, m)
		fmt.Fprintf(g.b, "int %s[%d][%d];\n", m.name, m.rows, m.cols)
	}
	if g.structs {
		g.b.WriteString("struct pair gp;\n")
	}
	if g.fptr {
		g.b.WriteString("int (*op)(int, int);\n")
	}
	g.b.WriteString("\n")
}

// emitHelpers writes the fixed-shape functions the random bodies lean
// on: the function-pointer candidates and the struct-by-value pair.
func (g *pgen) emitHelpers() {
	if g.fptr {
		fmt.Fprintf(g.b, "int alt0(int a, int b) { return (a + b + %d) & %s; }\n", g.r.n(512), valMask)
		fmt.Fprintf(g.b, "int alt1(int a, int b) { return ((a ^ b) + %d) & %s; }\n", g.r.n(512), valMask)
		g.funcs = append(g.funcs,
			genFn{name: "alt0", params: []string{"a", "b"}},
			genFn{name: "alt1", params: []string{"a", "b"}})
	}
	if g.structs {
		fmt.Fprintf(g.b, "struct pair mkpair(int a, int b) {\n\tstruct pair r;\n\tr.fa = (a + %d) & %s;\n\tr.fb = (b ^ %d) & %s;\n\treturn r;\n}\n",
			g.r.n(256), valMask, g.r.n(256), valMask)
		fmt.Fprintf(g.b, "int usepair(struct pair p) { return (p.fa * 3 + p.fb) & %s; }\n", valMask)
		g.funcs = append(g.funcs,
			genFn{name: "mkpair", params: []string{"a", "b"}, structRet: true},
			genFn{name: "usepair", structArg: true})
	}
	g.b.WriteString("\n")
}

// intTerm returns a random readable int-valued term in the current
// scope (no calls).
func (g *pgen) intTerm() string {
	choices := []func() string{
		func() string { return fmt.Sprintf("%d", g.r.n(1024)) },
		func() string { return g.r.pick(g.globals) },
	}
	if len(g.locals) > 0 {
		choices = append(choices, func() string { return g.r.pick(g.locals) })
	}
	if len(g.arrays) > 0 {
		choices = append(choices, func() string {
			a := g.arrays[g.r.n(len(g.arrays))]
			return fmt.Sprintf("%s[(%s) & %d]", a.name, g.expr(1), a.len-1)
		})
	}
	if len(g.mats) > 0 {
		choices = append(choices, func() string {
			m := g.mats[g.r.n(len(g.mats))]
			return fmt.Sprintf("%s[(%s) & %d][(%s) & %d]", m.name, g.expr(0), m.rows-1, g.expr(0), m.cols-1)
		})
	}
	if g.structs {
		choices = append(choices, func() string {
			return "gp.f" + g.r.pick([]string{"a", "b"})
		})
	}
	return choices[g.r.n(len(choices))]()
}

// callTerm returns a call to an already-defined scalar function, or ""
// when none fits the budget.
func (g *pgen) callTerm() string {
	if g.calls <= 0 || len(g.funcs) == 0 {
		return ""
	}
	var cands []genFn
	for _, f := range g.funcs {
		if !f.structArg && !f.structRet {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	g.calls--
	f := cands[g.r.n(len(cands))]
	return fmt.Sprintf("%s(%s)", f.name, strings.Join(g.argList(len(f.params), 1), ", "))
}

// pureTerm returns a term no callee can observe or modify: a constant
// or one of the caller's scalar params/locals (the subset has no
// pointers to locals, so a call cannot change them).
func (g *pgen) pureTerm() string {
	if len(g.locals) == 0 || g.r.chance(40) {
		return fmt.Sprintf("%d", g.r.n(1024))
	}
	return g.r.pick(g.locals)
}

// pureExpr builds an expression entirely from pure terms — no global,
// array, struct, or call subterms — so its value is the same no matter
// when it is evaluated relative to the rest of the statement.
func (g *pgen) pureExpr(depth int) string {
	if depth <= 0 || g.r.chance(40) {
		return g.pureTerm()
	}
	l, rr := g.pureExpr(depth-1), g.pureTerm()
	switch g.r.n(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, rr)
	case 1:
		return fmt.Sprintf("(%s ^ %s)", l, rr)
	case 2:
		return fmt.Sprintf("(%s | %s)", l, rr)
	case 3:
		return fmt.Sprintf("((%s & 8191) %% %d)", l, g.r.rangeN(2, 9))
	default:
		return fmt.Sprintf("(%s & %s)", l, rr)
	}
}

// argList builds an argument list whose value cannot depend on the
// order the arguments are evaluated in. C leaves that order
// unspecified and the backends genuinely differ (MIPS pushes left to
// right, the stack targets right to left), so — like Csmith — the
// generator refuses to emit order-sensitive lists: at most one
// argument (the "hot" one) may read globals or contain calls, and
// every other argument is built only from constants and the caller's
// own scalars, which no callee can touch.
func (g *pgen) argList(n, hotDepth int) []string {
	args := make([]string, n)
	hot := g.r.n(n)
	for i := range args {
		if i == hot {
			args[i] = g.expr(hotDepth)
		} else {
			args[i] = g.pureExpr(1)
		}
	}
	return args
}

// expr returns a random int expression of bounded depth. Stored values
// are 20-bit, so sums of a few terms and 10-bit×10-bit products stay
// far from int32 overflow; / and % see masked non-negative dividends
// and constant nonzero divisors.
func (g *pgen) expr(depth int) string {
	if depth <= 0 || g.r.chance(25) {
		if g.r.chance(15) {
			if c := g.callTerm(); c != "" {
				return c
			}
		}
		return g.intTerm()
	}
	l := g.expr(depth - 1)
	rr := g.expr(depth - 1)
	switch g.r.n(10) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, rr)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, rr)
	case 2:
		return fmt.Sprintf("((%s & 1023) * (%s & 1023))", l, rr)
	case 3:
		return fmt.Sprintf("((%s & 8191) / %d)", l, g.r.rangeN(1, 9))
	case 4:
		return fmt.Sprintf("((%s & 8191) %% %d)", l, g.r.rangeN(2, 9))
	case 5:
		return fmt.Sprintf("(%s & %s)", l, rr)
	case 6:
		return fmt.Sprintf("(%s | %s)", l, rr)
	case 7:
		return fmt.Sprintf("(%s ^ %s)", l, rr)
	case 8:
		return fmt.Sprintf("((%s & 65535) << %d)", l, g.r.n(8))
	default:
		return fmt.Sprintf("(%s >> %d)", l, g.r.n(8))
	}
}

func (g *pgen) cond() string {
	op := g.r.pick([]string{"<", "<=", ">", ">=", "==", "!="})
	return fmt.Sprintf("%s %s %s", g.expr(1), op, g.expr(1))
}

// lvalue returns a random assignable int location.
func (g *pgen) lvalue() string {
	choices := []string{g.r.pick(g.globals)}
	if len(g.locals) > 0 {
		choices = append(choices, g.r.pick(g.locals))
	}
	if len(g.arrays) > 0 {
		a := g.arrays[g.r.n(len(g.arrays))]
		choices = append(choices, fmt.Sprintf("%s[(%s) & %d]", a.name, g.expr(1), a.len-1))
	}
	if len(g.mats) > 0 {
		m := g.mats[g.r.n(len(g.mats))]
		choices = append(choices, fmt.Sprintf("%s[%d][(%s) & %d]", m.name, g.r.n(m.rows), g.expr(0), m.cols-1))
	}
	if g.structs {
		choices = append(choices, "gp.f"+g.r.pick([]string{"a", "b"}))
	}
	return g.r.pick(choices)
}

func (g *pgen) indent() string { return strings.Repeat("\t", g.depth) }

// stmt writes one random statement.
func (g *pgen) stmt(loopVars *int) {
	in := g.indent()
	switch g.r.n(8) {
	case 0, 1, 2: // assignment
		fmt.Fprintf(g.b, "%s%s = (%s) & %s;\n", in, g.lvalue(), g.expr(2), valMask)
	case 3: // for loop over a fresh counter
		if g.depth >= 3 || *loopVars >= 3 {
			fmt.Fprintf(g.b, "%s%s = (%s) & %s;\n", in, g.lvalue(), g.expr(2), valMask)
			return
		}
		v := fmt.Sprintf("i%d", *loopVars)
		*loopVars++
		fmt.Fprintf(g.b, "%sfor (%s = 0; %s < %d; %s++) {\n", in, v, v, g.r.rangeN(2, 8), v)
		g.depth++
		ns := g.r.rangeN(1, 2)
		for i := 0; i < ns; i++ {
			g.stmt(loopVars)
		}
		g.depth--
		fmt.Fprintf(g.b, "%s}\n", in)
	case 4: // if / else
		if g.depth >= 3 {
			fmt.Fprintf(g.b, "%s%s = (%s) & %s;\n", in, g.lvalue(), g.expr(2), valMask)
			return
		}
		fmt.Fprintf(g.b, "%sif (%s) {\n", in, g.cond())
		g.depth++
		g.stmt(loopVars)
		g.depth--
		if g.r.chance(50) {
			fmt.Fprintf(g.b, "%s} else {\n", in)
			g.depth++
			g.stmt(loopVars)
			g.depth--
		}
		fmt.Fprintf(g.b, "%s}\n", in)
	case 5: // struct traffic
		if g.structs {
			switch g.r.n(3) {
			case 0:
				margs := g.argList(2, 1)
				fmt.Fprintf(g.b, "%sgp = mkpair(%s, %s);\n", in, margs[0], margs[1])
			case 1:
				fmt.Fprintf(g.b, "%slp = gp;\n", in)
			default:
				fmt.Fprintf(g.b, "%s%s = usepair(gp) & %s;\n", in, g.lvalue(), valMask)
			}
			return
		}
		fmt.Fprintf(g.b, "%s%s = (%s) & %s;\n", in, g.lvalue(), g.expr(2), valMask)
	case 6: // function-pointer dispatch
		if g.fptr {
			if g.r.chance(50) {
				fmt.Fprintf(g.b, "%sif ((%s) & 1) { op = alt0; } else { op = alt1; }\n", in, g.expr(1))
			} else {
				oargs := g.argList(2, 1)
				fmt.Fprintf(g.b, "%s%s = op(%s, %s) & %s;\n", in, g.lvalue(), oargs[0], oargs[1], valMask)
			}
			return
		}
		fmt.Fprintf(g.b, "%s%s = (%s) & %s;\n", in, g.lvalue(), g.expr(2), valMask)
	default: // trace output
		fmt.Fprintf(g.b, "%sprintf(\"t%d %%d\\n\", %s);\n", in, g.r.n(100), g.expr(2))
	}
}

// emitFunc writes random compute function fN.
func (g *pgen) emitFunc(n int) {
	name := fmt.Sprintf("f%d", n)
	np := g.r.rangeN(1, 3)
	params := make([]string, np)
	decls := make([]string, np)
	for i := range params {
		params[i] = fmt.Sprintf("p%d", i)
		decls[i] = "int " + params[i]
	}
	fmt.Fprintf(g.b, "int %s(%s)\n{\n", name, strings.Join(decls, ", "))
	g.locals = append([]string{}, params...)
	g.calls = 3
	loopVars := 0
	// Declare the worker locals up front (subset style: decls at the
	// top of the block).
	nl := g.r.rangeN(1, 2)
	save := g.b
	g.b = &strings.Builder{}
	g.depth = 1
	for i := 0; i < nl; i++ {
		v := fmt.Sprintf("t%d", i)
		g.locals = append(g.locals, v)
	}
	// Loop counters i0..i2 are declared eagerly; unused ones are
	// harmless.
	ns := g.r.rangeN(3, 6)
	for i := 0; i < ns; i++ {
		g.stmt(&loopVars)
	}
	fmt.Fprintf(g.b, "\treturn (%s) & %s;\n", g.expr(2), valMask)
	bodyText := g.b.String()
	g.b = save
	g.b.WriteString("\tint i0; int i1; int i2;\n")
	for i := 0; i < nl; i++ {
		fmt.Fprintf(g.b, "\tint t%d;\n", i)
	}
	if g.structs {
		g.b.WriteString("\tstruct pair lp;\n")
	}
	g.b.WriteString("\ti0 = 0; i1 = 0; i2 = 0;\n")
	for i := 0; i < nl; i++ {
		fmt.Fprintf(g.b, "\tt%d = %d;\n", i, g.r.n(1024))
	}
	if g.structs {
		g.b.WriteString("\tlp.fa = 0; lp.fb = 0;\n\tgp = lp;\n")
	}
	g.b.WriteString(bodyText)
	g.b.WriteString("}\n\n")
	g.funcs = append(g.funcs, genFn{name: name, params: params})
	g.locals = nil
}

// emitMain writes main, which seeds the data, drives the compute
// functions, and prints checksums; it also decides the debug script.
func (g *pgen) emitMain() Scenario {
	g.b.WriteString("int main()\n{\n\tint acc;\n\tint k;\n")
	g.b.WriteString("\tacc = 0;\n")
	if g.fptr {
		g.b.WriteString("\top = alt0;\n")
	}
	if g.structs {
		g.b.WriteString("\tgp = mkpair(1, 2);\n")
	}
	for _, a := range g.arrays {
		fmt.Fprintf(g.b, "\tfor (k = 0; k < %d; k++) %s[k] = (k * %d + %d) & %s;\n",
			a.len, a.name, g.r.rangeN(3, 37), g.r.n(512), valMask)
	}
	for _, m := range g.mats {
		fmt.Fprintf(g.b, "\tfor (k = 0; k < %d; k++) %s[k / %d][k %% %d] = (k * %d) & %s;\n",
			m.rows*m.cols, m.name, m.cols, m.cols, g.r.rangeN(3, 29), valMask)
	}

	// Call each random compute function a few times; the first one is
	// the breakpoint target, so its call count bounds the hit count.
	var breakFn genFn
	var nCalls int
	for _, f := range g.funcs {
		if !f.structArg && !f.structRet && strings.HasPrefix(f.name, "f") {
			if breakFn.name == "" {
				breakFn = f
			}
			calls := g.r.rangeN(1, 3)
			if f.name == breakFn.name {
				nCalls = calls
			}
			for c := 0; c < calls; c++ {
				args := make([]string, len(f.params))
				for i := range args {
					args[i] = fmt.Sprintf("%d", g.r.n(1024))
				}
				fmt.Fprintf(g.b, "\tacc = (acc + %s(%s)) & %s;\n", f.name, strings.Join(args, ", "), valMask)
			}
		}
	}
	if g.fptr {
		fmt.Fprintf(g.b, "\tacc = (acc + op(acc, %d)) & %s;\n", g.r.n(1024), valMask)
	}
	if g.structs {
		fmt.Fprintf(g.b, "\tgp = mkpair(acc, %d);\n\tacc = (acc + usepair(gp)) & %s;\n", g.r.n(1024), valMask)
	}
	g.b.WriteString("\tprintf(\"acc %d\\n\", acc);\n")
	for _, a := range g.arrays {
		fmt.Fprintf(g.b, "\tfor (k = 0; k < %d; k++) acc = (acc + %s[k]) & %s;\n", a.len, a.name, valMask)
	}
	for _, gl := range g.globals {
		fmt.Fprintf(g.b, "\tacc = (acc ^ %s) & %s;\n", gl, valMask)
	}
	g.b.WriteString("\tprintf(\"sum %d\\n\", acc);\n\treturn 0;\n}\n")

	// The debug script: break at the first compute function's entry
	// (stop 0: parameters are visible there), inspect its parameters
	// and the globals, evaluate a couple of source expressions, and
	// take a step or two.
	sc := Scenario{
		BreakProc: breakFn.name,
		BreakStop: 0,
		MaxHits:   nCalls,
		Steps:     g.r.n(3),
	}
	sc.Prints = append(sc.Prints, breakFn.params...)
	sc.Prints = append(sc.Prints, g.globals[0])
	if len(g.arrays) > 0 {
		sc.Prints = append(sc.Prints, g.arrays[0].name)
	}
	sc.Evals = append(sc.Evals, fmt.Sprintf("%s + %s", g.globals[0], g.globals[len(g.globals)-1]))
	if len(g.arrays) > 0 {
		a := g.arrays[0]
		sc.Evals = append(sc.Evals, fmt.Sprintf("%s[%d]", a.name, g.r.n(a.len)))
	}
	return sc
}
