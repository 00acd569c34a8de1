package ps

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// eval runs src in a fresh interpreter and returns the resulting stack.
func eval(t *testing.T, src string) []Object {
	t.Helper()
	in := New()
	if err := in.RunString(src); err != nil {
		t.Fatalf("RunString(%q): %v", src, err)
	}
	return in.Stack
}

// evalTop runs src and returns the single object left on the stack.
func evalTop(t *testing.T, src string) Object {
	t.Helper()
	st := eval(t, src)
	if len(st) != 1 {
		t.Fatalf("eval(%q) left %d objects on the stack, want 1", src, len(st))
	}
	return st[0]
}

func wantInt(t *testing.T, src string, want int64) {
	t.Helper()
	o := evalTop(t, src)
	if o.Kind != KInt || o.I != want {
		t.Fatalf("eval(%q) = %s, want %d", src, Format(o), want)
	}
}

func wantReal(t *testing.T, src string, want float64) {
	t.Helper()
	o := evalTop(t, src)
	if o.Kind != KReal || o.R != want {
		t.Fatalf("eval(%q) = %s, want %g", src, Format(o), want)
	}
}

func wantBool(t *testing.T, src string, want bool) {
	t.Helper()
	o := evalTop(t, src)
	if o.Kind != KBool || o.B != want {
		t.Fatalf("eval(%q) = %s, want %v", src, Format(o), want)
	}
}

func wantString(t *testing.T, src string, want string) {
	t.Helper()
	o := evalTop(t, src)
	if o.Kind != KString || o.S != want {
		t.Fatalf("eval(%q) = %s, want (%s)", src, Format(o), want)
	}
}

func wantErr(t *testing.T, src, errName string) {
	t.Helper()
	in := New()
	err := in.RunString(src)
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("eval(%q): err = %v, want *ps.Error %q", src, err, errName)
	}
	if pe.Name != errName {
		t.Fatalf("eval(%q): error %q, want %q", src, pe.Name, errName)
	}
}

func TestArithmetic(t *testing.T) {
	wantInt(t, "3 4 add", 7)
	wantInt(t, "10 4 sub", 6)
	wantInt(t, "6 7 mul", 42)
	wantInt(t, "17 5 idiv", 3)
	wantInt(t, "17 5 mod", 2)
	wantReal(t, "7 2 div", 3.5)
	wantInt(t, "5 neg", -5)
	wantInt(t, "-5 abs", 5)
	wantReal(t, "1.5 2.5 add", 4.0)
	wantReal(t, "1 2.5 add", 3.5)
	wantInt(t, "1 3 bitshift", 8)
	wantInt(t, "8 -3 bitshift", 1)
	wantInt(t, "12 10 and", 8)
	wantInt(t, "12 10 or", 14)
	wantInt(t, "12 10 xor", 6)
	wantInt(t, "0 not", -1)
	wantReal(t, "2.7 truncate", 2.0)
	wantReal(t, "2.5 round", 3.0)
	wantReal(t, "2.7 floor", 2.0)
	wantReal(t, "2.1 ceiling", 3.0)
	wantReal(t, "9 sqrt", 3.0)
}

func TestArithmeticErrors(t *testing.T) {
	wantErr(t, "1 0 idiv", "undefinedresult")
	wantErr(t, "1 0 mod", "undefinedresult")
	wantErr(t, "1 0 div", "undefinedresult")
	wantErr(t, "(x) 1 add", "typecheck")
	wantErr(t, "add", "stackunderflow")
	wantErr(t, "-1 sqrt", "rangecheck")
}

func TestStackOps(t *testing.T) {
	wantInt(t, "1 2 pop", 1)
	wantInt(t, "1 2 exch pop", 2)
	wantInt(t, "5 dup add", 10)
	st := eval(t, "1 2 3 2 copy")
	if len(st) != 5 || st[3].I != 2 || st[4].I != 3 {
		t.Fatalf("copy: got %v", st)
	}
	wantInt(t, "10 20 30 2 index pop pop pop", 10)
	st = eval(t, "1 2 3 3 1 roll")
	if st[0].I != 3 || st[1].I != 1 || st[2].I != 2 {
		t.Fatalf("roll: got %v %v %v", st[0].I, st[1].I, st[2].I)
	}
	st = eval(t, "1 2 3 3 -1 roll")
	if st[0].I != 2 || st[1].I != 3 || st[2].I != 1 {
		t.Fatalf("roll -1: got %v %v %v", st[0].I, st[1].I, st[2].I)
	}
	wantInt(t, "1 2 3 clear 9", 9)
	wantInt(t, "7 8 count exch pop exch pop", 2)
	wantInt(t, "mark 1 2 3 counttomark exch pop exch pop exch pop exch pop", 3)
	if st := eval(t, "5 mark 1 2 3 cleartomark"); len(st) != 1 || st[0].I != 5 {
		t.Fatalf("cleartomark: got %v", st)
	}
}

func TestRelational(t *testing.T) {
	wantBool(t, "1 1 eq", true)
	wantBool(t, "1 2 eq", false)
	wantBool(t, "1 1.0 eq", true)
	wantBool(t, "(abc) (abc) eq", true)
	wantBool(t, "(abc) /abc eq", true) // strings and names compare by text
	wantBool(t, "1 2 ne", true)
	wantBool(t, "2 1 gt", true)
	wantBool(t, "1 1 ge", true)
	wantBool(t, "1 2 lt", true)
	wantBool(t, "(a) (b) lt", true)
	wantBool(t, "true false and", false)
	wantBool(t, "true false or", true)
	wantBool(t, "true not", false)
}

func TestControl(t *testing.T) {
	wantInt(t, "true {1} {2} ifelse", 1)
	wantInt(t, "false {1} {2} ifelse", 2)
	wantInt(t, "0 true {1 add} if", 1)
	wantInt(t, "0 false {1 add} if", 0)
	wantInt(t, "0 1 1 10 {add} for", 55)
	wantInt(t, "0 5 {1 add} repeat", 5)
	wantInt(t, "0 { 1 add dup 7 eq {exit} if } loop", 7)
	wantInt(t, "0 1 1 100 { dup 5 gt {pop exit} if add } for", 15)
	wantInt(t, "{3 4 add} exec", 7)
}

func TestStoppedAndStop(t *testing.T) {
	wantBool(t, "{1 2 add pop} stopped", false)
	wantBool(t, "{stop} stopped", true)
	wantBool(t, "{1 0 idiv} stopped", true) // errors behave like stop
	// exit inside stopped but outside a loop is an error, not a stop.
	in := New()
	err := in.RunString("{exit} stopped")
	if err == nil {
		t.Fatal("exit outside loop inside stopped: want error")
	}
}

func TestDictOps(t *testing.T) {
	wantInt(t, "/x 42 def x", 42)
	wantInt(t, "<< /a 1 /b 2 >> /b get", 2)
	wantInt(t, "<< /a 1 >> dup /c 3 put /c get", 3)
	wantBool(t, "<< /a 1 >> /a known", true)
	wantBool(t, "<< /a 1 >> /b known", false)
	wantInt(t, "<< /a 1 /b 2 >> length", 2)
	wantInt(t, "5 dict dup /k 9 put /k get", 9)
	wantInt(t, "/d << /v 10 >> def d begin v end", 10)
	wantInt(t, "/x 1 def /x 2 store x", 2)
	wantBool(t, "/x 5 def /x where exch pop", true)
	wantBool(t, "/no-such-name-xyz where", false)
	wantInt(t, "/x 3 def /x load", 3)
	wantErr(t, "undefined-name-abc", "undefined")
	wantInt(t, "0 << /a 1 /b 2 /c 3 >> { exch pop add } forall", 6)
	// undef removes a binding
	wantBool(t, "/d << /a 1 /b 2 >> def d /a undef d /a known", false)
}

func TestDictInsertionOrderForall(t *testing.T) {
	in := New()
	var got []string
	in.Register("record", func(in *Interp) error {
		s, err := in.PopName("record")
		if err != nil {
			return err
		}
		got = append(got, s)
		return nil
	})
	if err := in.RunString("<< /z 1 /a 2 /m 3 >> { pop record } forall"); err != nil {
		t.Fatal(err)
	}
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forall order = %v, want %v", got, want)
		}
	}
}

func TestArrayOps(t *testing.T) {
	wantInt(t, "[1 2 3] length", 3)
	wantInt(t, "[1 2 3] 1 get", 2)
	wantInt(t, "[1 2 3] dup 1 99 put 1 get", 99)
	wantInt(t, "3 array length", 3)
	wantInt(t, "0 [1 2 3 4] {add} forall", 10)
	st := eval(t, "[10 20] aload")
	if len(st) != 3 || st[0].I != 10 || st[1].I != 20 || st[2].Kind != KArray {
		t.Fatalf("aload: got %v", st)
	}
	wantInt(t, "7 8 2 array astore 1 get", 8)
	wantInt(t, "[ 1 2 3 ] 2 get", 3)
}

func TestStringOps(t *testing.T) {
	wantInt(t, "(hello) length", 5)
	wantInt(t, "(abc) 1 get", int64('b'))
	wantErr(t, "(abc) 0 88 put", "invalidaccess") // immutable strings
	wantString(t, "(nested (parens) ok)", "nested (parens) ok")
	wantString(t, "(tab\\there)", "tab\there")
	wantInt(t, "0 (ab) {add} forall", int64('a'+'b'))
}

func TestConversions(t *testing.T) {
	wantInt(t, "3.9 cvi", 3)
	wantReal(t, "3 cvr", 3.0)
	wantInt(t, "(42) cvi", 42)
	wantString(t, "42 cvs", "42")
	wantString(t, "/name cvs", "name")
	wantString(t, "true cvs", "true")
	wantBool(t, "{1} xcheck", true)
	wantBool(t, "[1] xcheck", false)
	wantBool(t, "(x) cvx xcheck", true)
	wantBool(t, "(x) cvx cvlit xcheck", false)
	o := evalTop(t, "(foo) cvn")
	if o.Kind != KName || o.S != "foo" {
		t.Fatalf("cvn: got %s", Format(o))
	}
	o = evalTop(t, "1 type")
	if o.Kind != KName || o.S != "integertype" {
		t.Fatalf("type: got %s", Format(o))
	}
}

func TestExecutableStringDeferral(t *testing.T) {
	// §5: lexical analysis of quoted code is deferred; executing the
	// string with cvx exec scans and runs it.
	wantInt(t, "(3 4 add) cvx exec", 7)
	// A deferred procedure replaced by its result.
	wantInt(t, "/p (10 20 mul) cvx def p", 200)
}

func TestRadixNumbers(t *testing.T) {
	wantInt(t, "16#000023d8", 0x23d8)
	wantInt(t, "16#ff", 255)
	wantInt(t, "2#1010", 10)
	wantInt(t, "8#777", 511)
}

func TestProcedureAndRecursion(t *testing.T) {
	wantInt(t, "/fact { dup 1 le { pop 1 } { dup 1 sub fact mul } ifelse } def 6 fact", 720)
	wantInt(t, "/fib { dup 2 lt { pop 1 } { dup 1 sub fib exch 2 sub fib add } ifelse } def 10 fib", 89)
}

func TestSymbolTableShape(t *testing.T) {
	// The exact shape used for symbol-table entries in §2.
	src := `
/S10 <<
  /name (i)
  /type << /decl (int %s) /printer {42} >>
  /sourcefile (fib.c)
  /sourcey 6
  /sourcex 8
  /kind (variable)
  /where 30
>> def
S10 /sourcey get
S10 /type get /printer get exec
`
	st := eval(t, src)
	if len(st) != 2 || st[0].I != 6 || st[1].I != 42 {
		t.Fatalf("symbol-table shape: got %v", st)
	}
}

func TestOutput(t *testing.T) {
	in := New()
	var buf strings.Builder
	in.Stdout = &buf
	if err := in.RunString("(hello) print 42 = [1 2] =="); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "hello42\n[ 1 2 ]\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

func TestPrettyOps(t *testing.T) {
	in := New()
	var buf strings.Builder
	in.Stdout = &buf
	if err := in.RunString("({) Put 0 Begin (a) Put 200 Break (b) Put End (}) Put"); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "{a\n") || !strings.Contains(got, "b}") {
		t.Fatalf("pretty output = %q", got)
	}
}

func TestExecutableFile(t *testing.T) {
	// Executing an executable file object reads and runs tokens until
	// EOF — how ldb listens to the expression server.
	in := New()
	f := &File{Name: "pipe", R: strings.NewReader("1 2 add 4 mul")}
	in.Push(FileObj(f))
	if err := in.RunString("cvx exec"); err != nil {
		t.Fatal(err)
	}
	if len(in.Stack) != 1 || in.Stack[0].I != 12 {
		t.Fatalf("file exec: stack %v", in.Stack)
	}
}

func TestFileStoppedStopsListening(t *testing.T) {
	// "cvx stopped" applied to the open pipe (§3): the server sends
	// tokens, then `stop` tells ldb to stop listening.
	in := New()
	f := &File{Name: "pipe", R: strings.NewReader("10 20 add stop ignored tokens")}
	in.Push(FileObj(f))
	if err := in.RunString("cvx stopped"); err != nil {
		t.Fatal(err)
	}
	if len(in.Stack) != 2 {
		t.Fatalf("stack = %v", in.Stack)
	}
	if in.Stack[1].Kind != KBool || !in.Stack[1].B {
		t.Fatalf("stopped = %s, want true", Format(in.Stack[1]))
	}
	if in.Stack[0].I != 30 {
		t.Fatalf("result = %s, want 30", Format(in.Stack[0]))
	}
}

func TestDictStackArchitectureSwitch(t *testing.T) {
	// §5: when ldb changes architectures it rebinds machine-dependent
	// names by placing a per-architecture dictionary on the dict stack.
	in := New()
	if err := in.RunString(`
/mips << /WordSize 4 /Endian (big) >> def
/vax  << /WordSize 4 /Endian (little) >> def
mips begin Endian end
vax begin Endian end
`); err != nil {
		t.Fatal(err)
	}
	if in.Stack[0].S != "big" || in.Stack[1].S != "little" {
		t.Fatalf("architecture switch: %v", in.Stack)
	}
}

func TestComments(t *testing.T) {
	wantInt(t, "1 % a comment\n2 add", 3)
	wantInt(t, "% only a comment\n5", 5)
	wantInt(t, "{ 1 % c\n } exec", 1)
}

func TestScannerErrors(t *testing.T) {
	for _, c := range []struct {
		src  string
		line int // for an unterminated string or procedure, the line of EOF
	}{
		{"(unterminated", 1},
		{"{ unterminated", 1},
		{")", 1},
		{"}", 1},
		{">", 1},
		{"(two\\nlines)\n(unterminated\nstring\n", 4},
		{"(a\nb)\n(unterminated\nc\n", 5},
		{"(escape at EOF\\", 1},
		{"(continued\\\n\\", 2},
		{"1\n2\n}", 3},
		{"\n<x", 2},
		{"\n>\n", 2},
		{"{\n1\n", 3},
		{"% comment )\n)", 2},
		{"{ 1 % c\n }\n}", 3}, // a comment before a closing brace still counts its line
	} {
		in := New()
		err := in.RunString(c.src)
		var pe *Error
		if !errors.As(err, &pe) || pe.Name != "syntaxerror" {
			t.Fatalf("eval(%q): err = %v, want syntaxerror", c.src, err)
		}
		if want := fmt.Sprintf("<string>:%d: ", c.line); !strings.HasPrefix(pe.Cmd, want) {
			t.Errorf("eval(%q): error %q, want it reported at %s", c.src, pe.Cmd, want)
		}
	}
}

func TestExecDepthLimit(t *testing.T) {
	in := New()
	err := in.RunString("/f { f } def f")
	var pe *Error
	if !errors.As(err, &pe) || pe.Name != "execstackoverflow" {
		t.Fatalf("infinite recursion: err = %v, want execstackoverflow", err)
	}
}

func TestStepLimit(t *testing.T) {
	in := New()
	in.MaxSteps = 10_000
	err := in.RunString("{ } loop")
	var pe *Error
	if !errors.As(err, &pe) || pe.Name != "timeout" {
		t.Fatalf("runaway loop: err = %v, want timeout", err)
	}
}

func TestBind(t *testing.T) {
	in := New()
	if err := in.RunString("/p {1 2 add} bind def /add {sub} def p"); err != nil {
		t.Fatal(err)
	}
	if in.Stack[len(in.Stack)-1].I != 3 {
		t.Fatalf("bind did not freeze operator: %v", in.Stack)
	}
}

// TestDictOperandIsOnlyAHint pins that `dict` preallocates a bounded
// amount, however many entries an untrusted table asks for.
func TestDictOperandIsOnlyAHint(t *testing.T) {
	in := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := in.RunString("/d 1000000 dict def d /k 1 put d length"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Fatalf("1000000 dict allocated %d bytes", got)
	}
	if n, err := in.PopInt("length"); err != nil || n != 1 {
		t.Fatalf("length = %d, %v; want 1", n, err)
	}
}

func TestEqualComposites(t *testing.T) {
	a := ArrayObj(Int(1))
	if !Equal(a, a) {
		t.Fatal("array must equal itself")
	}
	if Equal(a, ArrayObj(Int(1))) {
		t.Fatal("distinct arrays must not be eq")
	}
	d := NewDict(0)
	if !Equal(DictObj(d), DictObj(d)) {
		t.Fatal("dict must equal itself")
	}
}

func TestRunReader(t *testing.T) {
	in := New()
	if err := in.Run(strings.NewReader("1 2 add"), "test"); err != nil {
		t.Fatal(err)
	}
	if in.Stack[0].I != 3 {
		t.Fatalf("Run: stack %v", in.Stack)
	}
}

func TestEval(t *testing.T) {
	in := New()
	o, err := in.Eval("2 3 mul")
	if err != nil || o.I != 6 {
		t.Fatalf("Eval = %v, %v", o, err)
	}
	if _, err := in.Eval("clear"); err == nil {
		t.Fatal("Eval of empty-stack program should error on Pop")
	}
}

func TestEOFMidProc(t *testing.T) {
	var r io.Reader = strings.NewReader("{ 1 2")
	in := New()
	if err := in.Run(r, "x"); err == nil {
		t.Fatal("want error for EOF inside procedure")
	}
}

func TestEmbedderHelpers(t *testing.T) {
	in := New()
	// Def defines in the top dictionary; SystemDict/UserDict expose the
	// two permanent dictionaries for embedders.
	in.Def("answer", Int(42))
	if v, ok := in.UserDict().GetName("answer"); !ok || v.I != 42 {
		t.Fatalf("Def into userdict: %v %v", v, ok)
	}
	if _, ok := in.SystemDict().GetName("add"); !ok {
		t.Fatal("add missing from systemdict")
	}
	if err := in.RunString("[1 2 3]"); err != nil {
		t.Fatal(err)
	}
	a, err := in.PopArray("test")
	if err != nil || len(a.E) != 3 {
		t.Fatalf("PopArray: %v %v", a, err)
	}
	in.Push(Int(5))
	if _, err := in.PopArray("test"); err == nil {
		t.Fatal("PopArray accepted an int")
	}
	// pstack renders the stack top-first without consuming it.
	var buf strings.Builder
	in.Stdout = &buf
	in.Push(Int(1), Str("two"))
	if err := in.RunString("pstack"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "(two)\n1\n" {
		t.Fatalf("pstack = %q", buf.String())
	}
	if len(in.Stack) != 2 {
		t.Fatalf("pstack consumed the stack: %v", in.Stack)
	}
}

func TestNonNameDictKeys(t *testing.T) {
	// PostScript dictionaries accept any object as a key; integers and
	// reals compare numerically (1 and 1.0 are the same key).
	in := New()
	src := `<< 1 (one) true (yes) null (nil) >>`
	if err := in.RunString(src); err != nil {
		t.Fatal(err)
	}
	d, err := in.PopDict("test")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Get(Int(1)); !ok || v.S != "one" {
		t.Fatalf("int key: %v %v", v, ok)
	}
	if v, ok := d.Get(Real(1.0)); !ok || v.S != "one" {
		t.Fatalf("real 1.0 key should equal int 1: %v %v", v, ok)
	}
	if v, ok := d.Get(Boolean(true)); !ok || v.S != "yes" {
		t.Fatalf("bool key: %v %v", v, ok)
	}
	if v, ok := d.Get(Null()); !ok || v.S != "nil" {
		t.Fatalf("null key: %v %v", v, ok)
	}
	// Composite keys compare by identity.
	a1 := ArrayObj(Int(1))
	a2 := ArrayObj(Int(1))
	d.Put(a1, Str("first"))
	if _, ok := d.Get(a2); ok {
		t.Fatal("distinct arrays share a key")
	}
	if v, ok := d.Get(a1); !ok || v.S != "first" {
		t.Fatalf("array identity key: %v %v", v, ok)
	}
	// A mark cannot be a key.
	in2 := New()
	if err := in2.RunString("<< mark (v) >> pop"); err == nil {
		t.Fatal("mark accepted as dict key")
	}
}
