package core

import (
	"fmt"

	"ldb/internal/arch"
	"ldb/internal/nub"
	"ldb/internal/ps"
)

// This file implements the §7.1 extensions built ON TOP of the
// breakpoint primitive: source-level single stepping (plant temporary
// breakpoints at stopping points, continue, remove) and an event-driven
// layer whose special case is the conditional breakpoint.

// allStopAddrs realizes the code address of every stopping point in
// the program. The list is computed once per target and kept when every
// location in it was frame-independent — the rule by which stopLoc
// memoizes each one — since then no later stop can realize it
// differently; the caller must not modify it.
func (t *Target) allStopAddrs() ([]uint32, error) {
	if t.Degraded() {
		return nil, ErrNoSymbols
	}
	t.ensureCurrent()
	if t.stops != nil {
		return t.stops, nil
	}
	procs, ok := t.Table.Top.GetName("procs")
	if !ok || procs.Kind != ps.KArray {
		return nil, fmt.Errorf("core: no procs array")
	}
	var out []uint32
	fixed := true
	for _, pref := range procs.A.E {
		if pref.Kind != ps.KName && pref.Kind != ps.KString {
			continue
		}
		info, err := t.Table.ProcInfo(pref.S)
		if err != nil {
			continue
		}
		stops, err := t.Table.Loci(info)
		if err != nil {
			return nil, err
		}
		for i := range stops {
			s := &stops[i]
			fixed = fixed && (s.Where.Kind == ps.KExt || frameIndependent(s.Where))
			addr, err := t.stopLoc(s)
			if err != nil {
				return nil, err
			}
			out = append(out, addr)
		}
	}
	if fixed {
		t.stops = out
	}
	return out, nil
}

// Step resumes the target until the next stopping point, wherever it
// is: source-level single stepping implemented entirely with
// breakpoints (§7.1). Steps into calls and out of returns.
func (t *Target) Step() (*nub.Event, error) {
	addrs, err := t.allStopAddrs()
	if err != nil {
		return nil, err
	}
	var temps []uint32
	for _, a := range addrs {
		if !t.Bpts.IsPlanted(a) {
			temps = append(temps, a)
		}
	}
	// Plant every temporary in a couple of batched round trips instead
	// of two per stopping point; PlantMany rolls back on failure.
	if err := t.Bpts.PlantMany(temps); err != nil {
		return nil, err
	}
	ev, cerr := t.ContinueToBreakpoint()
	if err := t.Bpts.RemoveMany(temps); err != nil && cerr == nil {
		cerr = err
	}
	return ev, cerr
}

// stackDepth counts frames (bounded; deep recursion still compares
// correctly for Next's purposes).
func (t *Target) stackDepth() int {
	const limit = 64
	n := 0
	for i := 0; i < limit; i++ {
		f, err := t.Frame(i)
		if err != nil {
			break
		}
		n++
		if f.Proc() == "_start" {
			break
		}
	}
	return n
}

// isStopTrap reports a stop at a breakpoint trap (Step's temporaries
// are already removed when its event returns, so IsPlanted cannot be
// consulted here).
func isStopTrap(ev *nub.Event) bool {
	return !ev.Exited && ev.Sig == arch.SigTrap && ev.Code == arch.TrapBreakpoint
}

// Next is Step that treats calls as atomic: it keeps stepping while
// the stack is deeper than it was.
func (t *Target) Next() (*nub.Event, error) {
	start := t.stackDepth()
	for {
		ev, err := t.Step()
		if err != nil || ev.Exited {
			return ev, err
		}
		if !isStopTrap(ev) {
			return ev, nil // a real fault
		}
		if t.stackDepth() <= start {
			return ev, nil
		}
	}
}

// Finish steps until the current function returns (the stack is
// shallower than at the start).
func (t *Target) Finish() (*nub.Event, error) {
	start := t.stackDepth()
	for {
		ev, err := t.Step()
		if err != nil || ev.Exited {
			return ev, err
		}
		if !isStopTrap(ev) {
			return ev, nil
		}
		if t.stackDepth() < start {
			return ev, nil
		}
	}
}

// EventHandler inspects a stop and decides whether the debugger keeps
// the target stopped (true) or resumes it (false). Making the
// debugger's internals event-driven subsumes conditional breakpoints
// as a special case (§7.1).
type EventHandler func(t *Target, ev *nub.Event) (stop bool, err error)

// RunEvents resumes the target repeatedly, calling h at every stop,
// until h asks to stop, the target exits, or a non-breakpoint fault
// arrives.
func (t *Target) RunEvents(h EventHandler) (*nub.Event, error) {
	for {
		ev, err := t.Continue()
		if err != nil || ev.Exited {
			return ev, err
		}
		if !t.Bpts.IsBreakpointSignal(ev) {
			return ev, nil
		}
		stop, err := h(t, ev)
		if err != nil {
			return ev, err
		}
		if stop {
			return ev, nil
		}
	}
}

// SetCondition attaches a C expression to a planted breakpoint: the
// target stops there only when the expression is non-zero. An empty
// condition clears it.
func (t *Target) SetCondition(addr uint32, cond string) {
	if t.conds == nil {
		t.conds = make(map[uint32]string)
	}
	if cond == "" {
		delete(t.conds, addr)
		return
	}
	t.conds[addr] = cond
}

// BreakStopIf plants a conditional breakpoint at a stopping point.
func (t *Target) BreakStopIf(proc string, index int, cond string) (uint32, error) {
	addr, err := t.BreakStop(proc, index)
	if err != nil {
		return 0, err
	}
	t.SetCondition(addr, cond)
	return addr, nil
}

// ContinueConditional resumes, honoring breakpoint conditions: it is
// RunEvents with the condition-evaluating handler.
func (t *Target) ContinueConditional() (*nub.Event, error) {
	return t.RunEvents(func(t *Target, ev *nub.Event) (bool, error) {
		cond, ok := t.conds[ev.PC]
		if !ok {
			return true, nil
		}
		v, err := t.EvalInt(cond)
		if err != nil {
			return true, fmt.Errorf("core: breakpoint condition %q: %w", cond, err)
		}
		return v != 0, nil
	})
}

// RecoverBreakpoints adopts breakpoints planted by a previous debugger
// instance, using the enriched nub protocol (§7.1).
func (t *Target) RecoverBreakpoints() ([]uint32, error) {
	return t.Bpts.Recover()
}
