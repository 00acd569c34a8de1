package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/link"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

// session builds fib for archName, attaches a debugger, and returns a
// function that runs one REPL command and returns everything printed.
func session(t *testing.T, archName string) (func(string) string, *core.Debugger) {
	t.Helper()
	prog, err := driver.Build([]driver.Source{{Name: "fib.c", Text: workload.Fib}},
		driver.Options{Arch: archName, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	client, _, proc, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.New(os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
	if err != nil {
		t.Fatal(err)
	}
	tgt.Stdout = &proc.Stdout
	run := func(line string) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		d.In.Stdout = w
		command(d, line)
		w.Close()
		os.Stdout = old
		d.In.Stdout = old
		var buf bytes.Buffer
		io.Copy(&buf, r)
		return buf.String()
	}
	return run, d
}

func TestREPLSession(t *testing.T) {
	run, _ := session(t, "sparc")
	if out := run("break fib@7"); !strings.Contains(out, "breakpoint at 0x") {
		t.Fatalf("break: %q", out)
	}
	if out := run("continue"); !strings.Contains(out, "breakpoint: _fib") {
		t.Fatalf("continue: %q", out)
	}
	if out := run("print i"); strings.TrimSpace(out) != "2" {
		t.Fatalf("print i: %q", out)
	}
	if out := run("print a"); !strings.Contains(out, "{1, 1, 0") {
		t.Fatalf("print a: %q", out)
	}
	if out := run("= a[i-1] + a[i-2]"); strings.TrimSpace(out) != "2" {
		t.Fatalf("eval: %q", out)
	}
	if out := run("where"); !strings.Contains(out, "_fib") || !strings.Contains(out, "_main") {
		t.Fatalf("where: %q", out)
	}
	if out := run("regs"); !strings.Contains(out, "i6") || !strings.Contains(out, "pc") {
		t.Fatalf("regs: %q", out)
	}
	if out := run("dag"); !strings.Contains(out, "joined") {
		t.Fatalf("dag: %q", out)
	}
	if out := run("stops fib"); !strings.Contains(out, "13") {
		t.Fatalf("stops: %q", out)
	}
	if out := run("frame 1"); strings.Contains(out, "bad") {
		t.Fatalf("frame: %q", out)
	}
	run("frame 0")
	if out := run("step"); !strings.Contains(out, "_fib") {
		t.Fatalf("step: %q", out)
	}
	if out := run("targets"); !strings.Contains(out, "sparc") {
		t.Fatalf("targets: %q", out)
	}
	if out := run("ps 1 2 add ="); strings.TrimSpace(out) != "3" {
		t.Fatalf("ps: %q", out)
	}
	run("clear")
	if out := run("continue"); !strings.Contains(out, "exited with status 0") ||
		!strings.Contains(out, "1 1 2 3 5 8 13 21 34 55") {
		t.Fatalf("final continue: %q", out)
	}
	if out := run("nonsense"); !strings.Contains(out, "unknown command") {
		t.Fatalf("unknown: %q", out)
	}
	if out := run("help"); !strings.Contains(out, "commands:") {
		t.Fatalf("help: %q", out)
	}
}

func TestREPLConditionalAndEval(t *testing.T) {
	run, _ := session(t, "vax")
	if out := run("cond fib@7 i == 5"); !strings.Contains(out, "conditional breakpoint") {
		t.Fatalf("cond: %q", out)
	}
	run("continue")
	if out := run("print i"); strings.TrimSpace(out) != "5" {
		t.Fatalf("conditional stop: i = %q", out)
	}
	if out := run("eval n = 6"); strings.TrimSpace(out) != "6" {
		t.Fatalf("assign: %q", out)
	}
	if out := run("eval i * 2 + n"); strings.TrimSpace(out) != "16" {
		t.Fatalf("eval: %q", out)
	}
	run("clear")
	// §7.1: with the breakpoints cleared, a procedure call in an
	// evaluated expression runs fib(2) inside the stopped target.
	if out := run("eval fib(2)"); strings.Contains(out, "error") {
		t.Fatalf("call: %q", out)
	}
	if out := run("continue"); !strings.Contains(out, "1 1 2 3 5 8") {
		t.Fatalf("final: %q", out)
	}
}

func TestREPLWireCommand(t *testing.T) {
	run, _ := session(t, "mips")
	if out := run("wire"); !strings.Contains(out, "timeout 30s") || !strings.Contains(out, "3 reconnect retries") {
		t.Fatalf("wire defaults: %q", out)
	}
	if out := run("wire timeout 5s"); !strings.Contains(out, "wire timeout 5s") {
		t.Fatalf("wire timeout: %q", out)
	}
	if out := run("wire retry 8"); !strings.Contains(out, "wire retry 8") {
		t.Fatalf("wire retry: %q", out)
	}
	if out := run("wire"); !strings.Contains(out, "timeout 5s") || !strings.Contains(out, "8 reconnect retries") {
		t.Fatalf("wire after set: %q", out)
	}
	if out := run("wire timeout soon"); !strings.Contains(out, "bad duration") {
		t.Fatalf("bad duration: %q", out)
	}
	if out := run("wire retry 0"); !strings.Contains(out, "bad retry count") {
		t.Fatalf("bad retry: %q", out)
	}
	out := run("stats")
	for _, line := range []string{"robustness", "\nnub: ", "\nsim: "} {
		if !strings.Contains(out, line) {
			t.Fatalf("stats without a %q line: %q", strings.TrimSpace(line), out)
		}
	}
}

func TestCLIFilesRoundTrip(t *testing.T) {
	// Exercise the lcc→ldb file workflow: encode the image, decode it,
	// run it.
	prog, err := driver.Build([]driver.Source{{Name: "fib.c", Text: workload.Fib}},
		driver.Options{Arch: "m68k", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	imgPath := filepath.Join(dir, "fib.img")
	ldbPath := filepath.Join(dir, "fib.ldb")
	if err := os.WriteFile(imgPath, link.EncodeImage(prog.Image), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ldbPath, []byte(prog.LoaderPS), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := core.New(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := launchChild(d, imgPath, ldbPath); err != nil {
		t.Fatal(err)
	}
	tgt := d.Current()
	if tgt == nil || tgt.Arch.Name() != "m68k" {
		t.Fatal("no target after launchChild")
	}
	if _, err := tgt.BreakProc("fib"); err != nil {
		t.Fatal(err)
	}
	if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
		t.Fatalf("%v %v", ev, err)
	}
}
