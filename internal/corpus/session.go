package corpus

import (
	"bytes"
	"fmt"
	"strings"

	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

// sessionShare is the corpus-wide shared decode cache: every session of
// the same program image adopts the first finished session's decode
// products, the way the debug service's pool does. Sharing must be
// invisible in the transcripts — only the decode counters may move —
// which makes the whole differential corpus a soak test for the
// cross-session sharing seam.
var sessionShare = machine.NewTextCache()

// RunSession replays a scenario's debug script against one build of
// its program and returns the transcript: every debugger-visible line
// plus the program's own output and exit status. Transcripts are
// deliberately address-free — stop positions are reported as
// proc@stop-index, backtraces as procedure names — so the same program
// must transcribe identically on every ISA, in both simulator
// execution modes, over the plain and the optimized wire protocol.
// That byte-equality is the corpus's differential oracle.
//
//ldb:deterministic
func RunSession(prog *driver.Program, sc workload.Scenario, pd PredecodeMode, wire bool) ([]byte, error) {
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		return nil, err
	}
	// Launch by hand rather than through nub.Launch: the execution mode
	// and the shared-cache adoption must be set before the handshake
	// runs the target to its first stop (adoption requires a virgin
	// decode cache).
	proc := machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	proc.NoPredecode = pd == PredecodeOff
	// Capture-only checkpointing: dirty tracking plus a paced COW
	// snapshot, never restored. It must be invisible in every transcript
	// — which makes the whole differential corpus a soak test for the
	// checkpoint seam across all ISAs and execution modes.
	proc.EnableCheckpoints()
	proc.SetAutoCheckpoint(50_000, func() { proc.TakeCheckpoint() })
	if pd != PredecodeOff {
		sessionShare.Adopt(proc)
		// Publish at session end, when the decode products are warmest;
		// planted-but-never-removed breakpoints mutate the text and so
		// key the entry away from the pristine image, never poisoning it.
		defer sessionShare.Publish(proc)
	}
	client, err := nub.Pair(nub.New(proc))
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	// Closing the pipe ends the nub's Serve goroutine, which would
	// otherwise hold the whole process — memory, decode caches and
	// superblocks — for the life of the corpus run.
	defer client.Close()
	tgt, err := d.AttachClient(sc.Name, client, prog.LoaderPS)
	if err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	tgt.Stdout = &proc.Stdout
	tgt.Client.SetBatching(wire)
	tgt.Client.SetCaching(wire)

	var tr bytes.Buffer
	say := func(format string, args ...any) { fmt.Fprintf(&tr, format+"\n", args...) }

	if _, err := tgt.BreakStop(sc.BreakProc, sc.BreakStop); err != nil {
		return nil, fmt.Errorf("break %s@%d: %w", sc.BreakProc, sc.BreakStop, err)
	}
	say("break %s@%d", sc.BreakProc, sc.BreakStop)

	exited := false
	for hit := 1; hit <= sc.MaxHits && !exited; hit++ {
		ev, err := tgt.ContinueToBreakpoint()
		if err != nil {
			return nil, fmt.Errorf("continue: %w", err)
		}
		if ev.Exited {
			say("exit %d", ev.Status)
			exited = true
			break
		}
		at, err := whereAmI(tgt)
		if err != nil {
			return nil, err
		}
		say("hit %d %s", hit, at)
		for _, name := range sc.Prints {
			v, err := printCapture(d, tgt, name)
			if err != nil {
				return nil, fmt.Errorf("print %s: %w", name, err)
			}
			say("  %s = %s", name, v)
		}
		for _, ex := range sc.Evals {
			v, err := tgt.EvalInt(ex)
			if err != nil {
				return nil, fmt.Errorf("eval %q: %w", ex, err)
			}
			say("  eval %s = %d", ex, v)
		}
		bt, err := tgt.Backtrace(8)
		if err != nil {
			return nil, fmt.Errorf("backtrace: %w", err)
		}
		say("  bt %s", strings.Join(bt, " <- "))
		for s := 0; s < sc.Steps && !exited; s++ {
			ev, err := tgt.Step()
			if err != nil {
				return nil, fmt.Errorf("step: %w", err)
			}
			if ev.Exited {
				say("exit %d", ev.Status)
				exited = true
				break
			}
			at, err := whereAmI(tgt)
			if err != nil {
				return nil, err
			}
			say("  step %s", at)
		}
	}
	if !exited {
		if err := tgt.Bpts.RemoveAll(); err != nil {
			return nil, fmt.Errorf("clear breakpoints: %w", err)
		}
		ev, err := tgt.ContinueToBreakpoint()
		if err != nil {
			return nil, fmt.Errorf("final continue: %w", err)
		}
		if !ev.Exited {
			return nil, fmt.Errorf("stopped unexpectedly: %v", ev)
		}
		say("exit %d", ev.Status)
	}
	say("output %q", proc.Stdout.String())
	return tr.Bytes(), nil
}

// whereAmI names the current stop as proc@index — the address-free
// location every ISA agrees on (stopping points are numbered by the
// machine-independent front end).
func whereAmI(tgt *core.Target) (string, error) {
	f, err := tgt.Frame(0)
	if err != nil {
		return "", err
	}
	ctx, err := tgt.ContextAt(f)
	if err != nil {
		return "", err
	}
	idx := -1
	if ctx.Stop != nil {
		idx = ctx.Stop.Index
	}
	return fmt.Sprintf("at %s@%d", ctx.ProcEntryName, idx), nil
}

// printCapture runs Print and captures what it writes.
func printCapture(d *core.Debugger, tgt *core.Target, name string) (string, error) {
	var buf strings.Builder
	old := d.In.Stdout
	d.In.Stdout = &buf
	defer func() { d.In.Stdout = old }()
	if err := tgt.Print(name); err != nil {
		return "", err
	}
	return strings.TrimRight(buf.String(), "\n"), nil
}

// workloadScenarios returns the hand-written benchmark programs as
// scenarios too (break in main, no steps), so the fixed corpus rides
// the same oracle. Kept here rather than in workload because the debug
// scripts are corpus policy.
func workloadScenarios() []workload.Scenario {
	var out []workload.Scenario
	for _, name := range workload.Names {
		out = append(out, workload.Scenario{
			Name:      "w_" + name,
			Source:    workload.Programs[name],
			BreakProc: "main",
			BreakStop: 0,
			MaxHits:   1,
			Evals:     []string{"1+1"},
		})
	}
	return out
}
