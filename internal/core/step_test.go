package core

import (
	"strings"
	"testing"

	"ldb/internal/driver"
	"ldb/internal/nub"
)

// TestSourceLevelStepping exercises §7.1's stepping built on
// breakpoints: Step visits consecutive stopping points, into and out of
// calls, without any single-step support in the nub protocol.
func TestSourceLevelStepping(t *testing.T) {
	src := `
int twice(int x) {
	int d;
	d = x + x;
	return d;
}
int main() {
	int a;
	int b;
	a = 3;
	b = twice(a);
	return a + b;
}
`
	for _, a := range allArches {
		t.Run(a, func(t *testing.T) {
			var out strings.Builder
			d, _ := New(&out)
			tgt := launch(t, d, a, "step.c", src)
			// Begin at main's entry.
			if _, err := tgt.BreakProc("main"); err != nil {
				t.Fatal(err)
			}
			if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
				t.Fatalf("%v %v", ev, err)
			}
			if err := tgt.Bpts.RemoveAll(); err != nil {
				t.Fatal(err)
			}
			// Step: a = 3.
			if ev, err := tgt.Step(); err != nil || ev.Exited {
				t.Fatalf("step 1: %v %v", ev, err)
			}
			// Step: b = twice(a); next step lands INSIDE twice.
			if ev, err := tgt.Step(); err != nil || ev.Exited {
				t.Fatalf("step 2: %v %v", ev, err)
			}
			if ev, err := tgt.Step(); err != nil || ev.Exited {
				t.Fatalf("step 3: %v %v", ev, err)
			}
			bt, _ := tgt.Backtrace(8)
			if bt[0] != "_twice" {
				t.Fatalf("step did not enter twice: %v", bt)
			}
			// Finish: back out to main, with twice's return value
			// committed.
			if ev, err := tgt.Finish(); err != nil || ev.Exited {
				t.Fatalf("finish: %v %v", ev, err)
			}
			bt, _ = tgt.Backtrace(8)
			if bt[0] != "_main" {
				t.Fatalf("finish did not return to main: %v", bt)
			}
			// Keep stepping to the end.
			for i := 0; i < 20; i++ {
				ev, err := tgt.Step()
				if err != nil {
					t.Fatal(err)
				}
				if ev.Exited {
					if ev.Status != 9 {
						t.Fatalf("exit status %d, want 9", ev.Status)
					}
					return
				}
			}
			t.Fatal("never finished stepping")
		})
	}
}

// TestStepStopListPerTarget steps two targets of one debugger in turn,
// each a different program on a different machine, and checks that
// every step stops where stepping that target alone does: each target
// keeps its own stopping-point list, and stepping still switches the
// debugger to the target it steps.
func TestStepStopListPerTarget(t *testing.T) {
	progs := []struct{ arch, file, src string }{
		{"mips", "fib.c", fibC},
		{"vax", "next.c", `
int helper(int x) { int h; h = x * 2; return h; }
int main() { int a; a = helper(1); a = a + helper(2); return a; }
`},
	}
	const steps = 12
	start := func(d *Debugger, k int) *Target {
		tgt := launch(t, d, progs[k].arch, progs[k].file, progs[k].src)
		if _, err := tgt.BreakProc("main"); err != nil {
			t.Fatal(err)
		}
		if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
			t.Fatalf("%v %v", ev, err)
		}
		if err := tgt.Bpts.RemoveAll(); err != nil {
			t.Fatal(err)
		}
		return tgt
	}
	step := func(tgt *Target) uint32 {
		ev, err := tgt.Step()
		if err != nil || ev.Exited {
			t.Fatalf("%s: step: %v %v", tgt.Name, ev, err)
		}
		return ev.PC
	}
	var alone [2][]uint32
	for k := range progs {
		d, _ := New(&strings.Builder{})
		tgt := start(d, k)
		for range steps {
			alone[k] = append(alone[k], step(tgt))
		}
	}
	d, _ := New(&strings.Builder{})
	tgts := []*Target{start(d, 0), start(d, 1)}
	for i := range steps {
		for k, tgt := range tgts {
			if pc := step(tgt); pc != alone[k][i] {
				t.Fatalf("%s: step %d stopped at %#x, alone at %#x", tgt.Name, i, pc, alone[k][i])
			}
		}
	}
}

func TestNextTreatsCallsAsAtomic(t *testing.T) {
	src := `
int helper(int x) { int h; h = x * 2; return h; }
int main() {
	int a;
	a = helper(1);
	a = a + helper(2);
	return a;
}
`
	var out strings.Builder
	d, _ := New(&out)
	tgt := launch(t, d, "mips", "next.c", src)
	if _, err := tgt.BreakProc("main"); err != nil {
		t.Fatal(err)
	}
	if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
		t.Fatalf("%v %v", ev, err)
	}
	if err := tgt.Bpts.RemoveAll(); err != nil {
		t.Fatal(err)
	}
	// Next over both statements: the stack never appears deeper.
	for i := 0; i < 2; i++ {
		ev, err := tgt.Next()
		if err != nil || ev.Exited {
			t.Fatalf("next %d: %v %v", i, ev, err)
		}
		if bt, _ := tgt.Backtrace(4); bt[0] != "_main" {
			t.Fatalf("next %d stopped in %v", i, bt)
		}
	}
	if v, err := tgt.FetchScalar("a"); err != nil || v != 2 {
		t.Fatalf("after next 2: a = %d, %v", v, err)
	}
}

func TestConditionalBreakpoint(t *testing.T) {
	// §7.1: event-driven debugging subsumes conditional breakpoints.
	var out strings.Builder
	d, _ := New(&out)
	tgt := launch(t, d, "sparc", "fib.c", fibC)
	if _, err := tgt.BreakStopIf("fib", 7, "i == 6"); err != nil {
		t.Fatal(err)
	}
	ev, err := tgt.ContinueConditional()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Exited {
		t.Fatal("exited without hitting the condition")
	}
	if v, _ := tgt.FetchScalar("i"); v != 6 {
		t.Fatalf("stopped with i = %d, want 6", v)
	}
	// Clearing the condition stops at the next hit regardless.
	for addr := range map[uint32]string{} {
		_ = addr
	}
	tgt.SetCondition(ev.PC, "")
	ev, err = tgt.ContinueConditional()
	if err != nil || ev.Exited {
		t.Fatalf("%v %v", ev, err)
	}
	if v, _ := tgt.FetchScalar("i"); v != 7 {
		t.Fatalf("unconditional hit at i = %d, want 7", v)
	}
}

func TestRunEventsCollectsTrace(t *testing.T) {
	// An event-action client built above ldb (§6): log i at every hit
	// of the loop body, never stopping until the program ends.
	var out strings.Builder
	d, _ := New(&out)
	tgt := launch(t, d, "vax", "fib.c", fibC)
	if _, err := tgt.BreakStop("fib", 7); err != nil {
		t.Fatal(err)
	}
	var trace []int64
	ev, err := tgt.RunEvents(func(t *Target, ev *nub.Event) (bool, error) {
		v, err := t.FetchScalar("i")
		if err != nil {
			return true, err
		}
		trace = append(trace, v)
		return false, nil // always resume
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Exited {
		t.Fatalf("expected exit, got %v", ev)
	}
	want := []int64{2, 3, 4, 5, 6, 7, 8, 9}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v", trace)
		}
	}
}

// TestBreakpointRecoveryAfterCrash exercises §7.1's protocol
// enrichment end to end: debugger one plants breakpoints and vanishes;
// debugger two recovers them from the nub — including the overwritten
// instructions — and debugging continues correctly.
func TestBreakpointRecoveryAfterCrash(t *testing.T) {
	prog, err := driver.Build([]driver.Source{{Name: "fib.c", Text: fibC}}, driver.Options{Arch: "m68k", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	client1, n, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	var out1 strings.Builder
	d1, _ := New(&out1)
	t1, err := d1.AttachClient("one", client1, prog.LoaderPS)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := t1.BreakStop("fib", 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := t1.ContinueToBreakpoint(); err != nil || ev.Exited {
		t.Fatalf("%v %v", ev, err)
	}
	// Debugger one "crashes": the connection just goes away (the first
	// ldb never detaches or removes its breakpoint).
	client1.Close()

	// Debugger two connects fresh.
	client2, err := nub.Pair(n)
	if err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	d2, _ := New(&out2)
	t2, err := d2.AttachClient("two", client2, prog.LoaderPS)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := t2.RecoverBreakpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0] != addr {
		t.Fatalf("recovered %v, want [%#x]", recovered, addr)
	}
	// The recovered breakpoint behaves like its own: the target resumes
	// past it and hits it again.
	if ev, err := t2.ContinueToBreakpoint(); err != nil || ev.Exited || ev.PC != addr {
		t.Fatalf("%v %v", ev, err)
	}
	if v, _ := t2.FetchScalar("i"); v != 3 {
		t.Fatalf("i = %d after recovery, want 3", v)
	}
	// And it can be removed cleanly, restoring the no-op.
	if err := t2.Bpts.Remove(addr); err != nil {
		t.Fatal(err)
	}
	if ev, err := t2.Continue(); err != nil || !ev.Exited || ev.Status != 0 {
		t.Fatalf("final: %v %v", ev, err)
	}
}
