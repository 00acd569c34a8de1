package core

import (
	"bytes"
	"errors"
	"fmt"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/bpt"
	"ldb/internal/frame"
	"ldb/internal/nub"
	"ldb/internal/ps"
	"ldb/internal/symtab"
)

// Target is one debugged process. Dependence on target state is
// surprisingly pervasive (§7) — even printing a function pointer needs
// the loader table — so everything target-specific lives here.
type Target struct {
	D      *Debugger
	Name   string
	Arch   arch.Arch
	Client *nub.Client
	Table  *symtab.Table
	Bpts   *bpt.Manager

	FInfo  *frame.Target
	Walker frame.Walker

	Frames   []*frame.Frame
	CurFrame int

	Exited     bool
	ExitStatus int

	// LazyFetches counts anchor-table fetches from the target address
	// space; thanks to memoization they happen at most once per entry
	// (§7).
	LazyFetches int

	procsByAddr map[uint32]string // proc entry PS-names by code address
	exprS       *exprSession
	exprScope   uint64 // pc+frame of the last Eval; a change flushes frame bindings
	exprTrace   func(dir, line string)
	conds       map[uint32]string // breakpoint conditions by address
	stops       []uint32          // every stopping point's address, once known fixed (allStopAddrs)

	// Stdout, when set by the embedder, points at the target process's
	// collected output (the in-process "child" arrangement).
	Stdout *bytes.Buffer
}

// ErrNoSymbols reports a source-level operation attempted on a target
// attached in machine-level (degraded) mode, where no symbol table is
// available.
var ErrNoSymbols = errors.New("core: no symbol table (machine-level mode)")

func newTarget(d *Debugger, name string, a arch.Arch, client *nub.Client, table *symtab.Table) *Target {
	t := &Target{
		D: d, Name: name, Arch: a, Client: client, Table: table,
		Bpts: bpt.New(a, client),
	}
	// In machine-level mode there is no table: frames walk without a
	// runtime procedure table and procedures have no names.
	var rpt uint32
	if table != nil {
		rpt, _ = table.RPTAddr()
	}
	t.FInfo = &frame.Target{
		A: a, C: client, Ctx: client.CtxAddr, RPT: rpt,
		ProcName: func(pc uint32) string {
			if table == nil {
				return ""
			}
			if p, ok := table.ProcContaining(pc); ok {
				return p.Name
			}
			return ""
		},
	}
	t.Walker = frame.New(t.FInfo)
	return t
}

// Degraded reports whether the target was attached without a usable
// symbol table: machine-level debugging only.
func (t *Target) Degraded() bool { return t.Table == nil }

// Stopped reports whether the target is stopped at a signal.
func (t *Target) Stopped() bool {
	return !t.Exited && t.Client.Last != nil && !t.Client.Last.Exited
}

// Refresh rebuilds the frame list after a stop. In machine-level mode a
// failed walk (some architectures cannot walk without the symbol
// table's runtime procedure table) leaves the frame list empty rather
// than failing the stop: registers and memory are still inspectable.
func (t *Target) Refresh() error {
	t.Frames = nil
	t.CurFrame = 0
	top, err := t.Walker.Top()
	if err != nil {
		if t.Degraded() {
			return nil
		}
		return err
	}
	t.Frames = []*frame.Frame{top}
	return nil
}

// Frame returns frame i, walking the stack as needed.
func (t *Target) Frame(i int) (*frame.Frame, error) {
	for len(t.Frames) <= i {
		if len(t.Frames) == 0 {
			if err := t.Refresh(); err != nil {
				return nil, err
			}
			if len(t.Frames) == 0 {
				// A degraded-mode Refresh may legitimately produce no
				// frames; report that instead of retrying forever.
				return nil, fmt.Errorf("core: no stack frames (machine-level mode)")
			}
			continue
		}
		f, err := t.Frames[len(t.Frames)-1].Caller()
		if err != nil {
			return nil, err
		}
		t.Frames = append(t.Frames, f)
	}
	return t.Frames[i], nil
}

// SelectFrame makes frame i current for name resolution and printing.
func (t *Target) SelectFrame(i int) error {
	if _, err := t.Frame(i); err != nil {
		return err
	}
	t.CurFrame = i
	return nil
}

// Continue resumes the target. If it is stopped at one of our
// breakpoints, the overwritten no-op is interpreted out of line first:
// the saved pc is advanced past it (§3).
func (t *Target) Continue() (*nub.Event, error) {
	return t.resume(false)
}

// StepInst advances the target by exactly one instruction through the
// nub's machine-level step — the stepping that works with no symbol
// table at all, unlike the source-level Step which plants temporary
// breakpoints at stopping points.
func (t *Target) StepInst() (*nub.Event, error) {
	return t.resume(true)
}

func (t *Target) resume(step bool) (*nub.Event, error) {
	if t.Exited {
		return nil, fmt.Errorf("core: %s has exited", t.Name)
	}
	last := t.Client.Last
	if last != nil && !last.Exited && t.Bpts.IsPlanted(last.PC) {
		if t.Bpts.IsRaw(last.PC) {
			// A machine-level breakpoint overwrote a real instruction:
			// restore it, retire it with one machine step, replant.
			ev, done, err := t.stepOffRaw(last.PC)
			if err != nil {
				return nil, err
			}
			if done || step {
				return t.settle(ev)
			}
		} else {
			// A stopping-point no-op: interpret it out of line by
			// advancing the saved pc past it (§3).
			l := t.Arch.Context()
			newPC := t.Bpts.ResumePC(last.PC)
			if err := t.Client.StoreInt(amem.Data, t.Client.CtxAddr+uint32(l.PCOff), 4, uint64(newPC)); err != nil {
				return nil, err
			}
		}
	}
	var ev *nub.Event
	var err error
	if step {
		ev, err = t.Client.StepInst()
	} else {
		ev, err = t.Client.Continue()
	}
	if err != nil {
		// A continue lost to the wire may still have run the target.
		// When the client reconnected, its handshake replayed the nub's
		// latched event into Last: resync our view from that event —
		// verified live by walking the stack — and report it alongside
		// the error, so the debugger is looking at real state.
		if last := t.Client.Last; nub.IsConnLost(err) && last != nil && !last.Exited {
			if rerr := t.Refresh(); rerr == nil {
				return last, err
			}
		}
		return nil, err
	}
	return t.settle(ev)
}

// stepOffRaw moves the target off a raw (machine-level) breakpoint: the
// trap is unplanted, the original instruction retired with a single
// machine step, and the trap replanted. done reports that the step
// produced a terminal event — a fault or an exit — that the caller must
// surface instead of resuming further.
func (t *Target) stepOffRaw(addr uint32) (ev *nub.Event, done bool, err error) {
	if err := t.Bpts.Remove(addr); err != nil {
		return nil, false, err
	}
	ev, err = t.Client.StepInst()
	if err != nil {
		return nil, false, err
	}
	if ev.Exited {
		return ev, true, nil
	}
	if err := t.Bpts.PlantRaw(addr); err != nil {
		return nil, false, err
	}
	if ev.Sig != arch.SigTrap || ev.Code != arch.TrapStep {
		return ev, true, nil // the instruction itself faulted
	}
	return ev, false, nil
}

// settle records an event's consequences: exit bookkeeping, or a stack
// refresh at the new stop.
func (t *Target) settle(ev *nub.Event) (*nub.Event, error) {
	if ev.Exited {
		t.Exited, t.ExitStatus = true, ev.Status
		t.Frames = nil
		return ev, nil
	}
	if err := t.Refresh(); err != nil {
		return ev, err
	}
	return ev, nil
}

// ContinueToBreakpoint resumes repeatedly until a planted breakpoint
// (or exit or a real fault) is reached.
func (t *Target) ContinueToBreakpoint() (*nub.Event, error) {
	for {
		ev, err := t.Continue()
		if err != nil || ev.Exited {
			return ev, err
		}
		if t.Bpts.IsBreakpointSignal(ev) {
			return ev, nil
		}
		if ev.Sig != arch.SigTrap {
			return ev, nil // a real fault
		}
	}
}

// stopLoc realizes a stopping point's object-code location, replacing
// the where procedure with its result (interpreted at most once, §5).
func (t *Target) stopLoc(s *symtab.Stop) (uint32, error) {
	t.ensureCurrent()
	o, err := t.D.evalWhere(s.Where)
	if err != nil {
		return 0, err
	}
	if s.Elem != nil && frameIndependent(s.Where) {
		s.Elem.PutName("where", o)
	}
	loc := o.X.(*LocExt).Loc
	return uint32(loc.Offset), nil
}

// ensureCurrent switches the debugger to this target if needed (the
// lazy operators consult the current target).
func (t *Target) ensureCurrent() {
	if t.D.cur != t {
		t.D.Switch(t)
	}
}

// ProcStops returns a procedure's stopping points by source name.
func (t *Target) ProcStops(proc string) ([]symtab.Stop, string, error) {
	if t.Degraded() {
		return nil, "", ErrNoSymbols
	}
	_, entryName, ok := t.Table.ProcEntryByName(proc)
	if !ok {
		return nil, "", fmt.Errorf("core: no procedure %q", proc)
	}
	info, err := t.Table.ProcInfo(entryName)
	if err != nil {
		return nil, "", err
	}
	stops, err := t.Table.Loci(info)
	return stops, entryName, err
}

// BreakProc plants a breakpoint at a procedure's first stopping point
// (users specify source locations or procedure names, §3).
func (t *Target) BreakProc(proc string) (uint32, error) {
	stops, _, err := t.ProcStops(proc)
	if err != nil {
		return 0, err
	}
	if len(stops) == 0 {
		return 0, fmt.Errorf("core: %q has no stopping points", proc)
	}
	addr, err := t.stopLoc(&stops[0])
	if err != nil {
		return 0, err
	}
	return addr, t.Bpts.Plant(addr)
}

// BreakStop plants a breakpoint at a specific stopping point.
func (t *Target) BreakStop(proc string, index int) (uint32, error) {
	stops, _, err := t.ProcStops(proc)
	if err != nil {
		return 0, err
	}
	for i := range stops {
		if stops[i].Index == index {
			addr, err := t.stopLoc(&stops[i])
			if err != nil {
				return 0, err
			}
			return addr, t.Bpts.Plant(addr)
		}
	}
	return 0, fmt.Errorf("core: %s has no stopping point %d", proc, index)
}

// BreakLine plants breakpoints at every stopping point on the given
// source line (because of the C preprocessor, one source location may
// correspond to more than one stopping point, §2).
func (t *Target) BreakLine(file string, line int) ([]uint32, error) {
	if t.Degraded() {
		return nil, ErrNoSymbols
	}
	sm, ok := t.Table.Top.GetName("sourcemap")
	if !ok || sm.Kind != ps.KDict {
		return nil, fmt.Errorf("core: no sourcemap")
	}
	procs, ok := sm.D.GetName(file)
	if !ok || procs.Kind != ps.KArray {
		return nil, fmt.Errorf("core: no procedures for %s", file)
	}
	var planted []uint32
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
			continue
		}
		for i := range stops {
			if stops[i].Line == line {
				addr, err := t.stopLoc(&stops[i])
				if err != nil {
					return planted, err
				}
				if err := t.Bpts.Plant(addr); err != nil {
					return planted, err
				}
				planted = append(planted, addr)
			}
		}
	}
	if len(planted) == 0 {
		return nil, fmt.Errorf("core: no stopping point at %s:%d", file, line)
	}
	return planted, nil
}

// procEntryNameByAddr maps a procedure's code address to its entry
// name, building the table from the top-level procs array on first use
// (§2: ldb uses the procs array to build a table mapping procedure
// addresses to symbol-table entries).
func (t *Target) procEntryNameByAddr(addr uint32) (string, error) {
	if t.Degraded() {
		return "", ErrNoSymbols
	}
	if t.procsByAddr == nil {
		t.ensureCurrent()
		t.procsByAddr = make(map[uint32]string)
		procs, ok := t.Table.Top.GetName("procs")
		if !ok || procs.Kind != ps.KArray {
			return "", fmt.Errorf("core: no procs array")
		}
		for _, pref := range procs.A.E {
			if pref.Kind != ps.KName && pref.Kind != ps.KString {
				continue
			}
			entry, err := t.Table.EntryOf(pref.S)
			if err != nil {
				return "", err
			}
			w, ok := entry.GetName("where")
			if !ok {
				continue
			}
			o, err := t.D.evalWhere(w)
			if err != nil {
				return "", err
			}
			entry.PutName("where", o)
			t.procsByAddr[uint32(o.X.(*LocExt).Loc.Offset)] = pref.S
		}
	}
	p, ok := t.Table.ProcContaining(addr)
	if !ok {
		return "", fmt.Errorf("core: pc %#x is in no known procedure", addr)
	}
	if name, ok := t.procsByAddr[p.Addr]; ok {
		return name, nil
	}
	return "", fmt.Errorf("core: no symbols for procedure %s", p.Name)
}

// Context is a name-resolution context: a particular stopping point in
// a particular procedure, normally the place where control has stopped
// (§2).
type Context struct {
	ProcEntryName string
	Stop          *symtab.Stop
}

// ContextAt computes the resolution context for a frame: the procedure
// containing its pc and the nearest stopping point at or before it.
func (t *Target) ContextAt(f *frame.Frame) (Context, error) {
	entryName, err := t.procEntryNameByAddr(f.PC)
	if err != nil {
		return Context{}, err
	}
	info, err := t.Table.ProcInfo(entryName)
	if err != nil {
		return Context{}, err
	}
	stops, err := t.Table.Loci(info)
	if err != nil {
		return Context{}, err
	}
	ctx := Context{ProcEntryName: entryName}
	var bestAddr uint32
	for i := range stops {
		addr, err := t.stopLoc(&stops[i])
		if err != nil {
			return Context{}, err
		}
		if addr <= f.PC && (ctx.Stop == nil || addr >= bestAddr) {
			ctx.Stop = &stops[i]
			bestAddr = addr
		}
	}
	return ctx, nil
}

// Lookup resolves a name in the current frame's context.
func (t *Target) Lookup(id string) (symtab.Entry, error) {
	if t.Degraded() {
		return symtab.Entry{}, ErrNoSymbols
	}
	if t.CurFrame >= len(t.Frames) {
		return symtab.Entry{}, fmt.Errorf("core: no frame to resolve %q in", id)
	}
	f := t.Frames[t.CurFrame]
	ctx, err := t.ContextAt(f)
	if err != nil {
		return symtab.Entry{}, err
	}
	return t.Table.ResolveAt(ctx.ProcEntryName, ctx.Stop, id)
}

// WhereLoc computes an entry's location in the current frame,
// memoizing frame-independent results by replacement.
func (t *Target) WhereLoc(e symtab.Entry) (amem.Location, error) {
	t.ensureCurrent()
	w, ok := e.D.GetName("where")
	if !ok {
		return amem.Location{}, fmt.Errorf("core: %s has no location", e.Name())
	}
	o, err := t.D.evalWhere(w)
	if err != nil {
		return amem.Location{}, err
	}
	if frameIndependent(w) {
		e.D.PutName("where", o)
	}
	return o.X.(*LocExt).Loc, nil
}

// Print prints the value of name, resolved at the current stopping
// point, by interpreting the printer procedure from the value's type
// dictionary (§2).
func (t *Target) Print(id string) error {
	e, err := t.Lookup(id)
	if err != nil {
		return err
	}
	return t.PrintEntry(e)
}

// PrintEntry prints one entry's value through its type's printer.
func (t *Target) PrintEntry(e symtab.Entry) error {
	t.ensureCurrent()
	loc, err := t.WhereLoc(e)
	if err != nil {
		return err
	}
	f := t.Frames[t.CurFrame]
	td := e.TypeDict()
	if td == nil {
		return fmt.Errorf("core: %s has no type", e.Name())
	}
	t.D.In.Push(MemObj(f.Mem), LocObj(loc), ps.DictObj(td))
	if err := t.D.In.RunString("PrintValue"); err != nil {
		return err
	}
	t.D.In.Pretty.Put("\n")
	return nil
}

// AssignInt assigns an integer value to a scalar variable through the
// frame's abstract memory (register assignments go through the alias
// into the context; the nub restores them on continue, §4.1).
func (t *Target) AssignInt(id string, v int64) error {
	e, err := t.Lookup(id)
	if err != nil {
		return err
	}
	loc, err := t.WhereLoc(e)
	if err != nil {
		return err
	}
	td := e.TypeDict()
	size := 4
	if sz, ok := td.GetName("size"); ok && sz.I > 0 && sz.I <= 4 {
		size = int(sz.I)
	}
	if fs, ok := td.GetName("fsize"); ok {
		return t.Frames[t.CurFrame].Mem.StoreFloat(loc, int(fs.I), float64(v))
	}
	return t.Frames[t.CurFrame].Mem.StoreInt(loc, size, uint64(v))
}

// AssignFloat assigns a floating value.
func (t *Target) AssignFloat(id string, v float64) error {
	e, err := t.Lookup(id)
	if err != nil {
		return err
	}
	loc, err := t.WhereLoc(e)
	if err != nil {
		return err
	}
	td := e.TypeDict()
	fs, ok := td.GetName("fsize")
	if !ok {
		return fmt.Errorf("core: %s is not a floating variable", id)
	}
	return t.Frames[t.CurFrame].Mem.StoreFloat(loc, int(fs.I), v)
}

// FetchScalar reads a scalar variable's value (sign-extended) — the
// client-interface path used by tools built above ldb (§6).
func (t *Target) FetchScalar(id string) (int64, error) {
	e, err := t.Lookup(id)
	if err != nil {
		return 0, err
	}
	loc, err := t.WhereLoc(e)
	if err != nil {
		return 0, err
	}
	td := e.TypeDict()
	size := 4
	if sz, ok := td.GetName("size"); ok && sz.I > 0 && sz.I <= 4 {
		size = int(sz.I)
	}
	raw, err := t.Frames[t.CurFrame].Mem.FetchInt(loc, size)
	if err != nil {
		return 0, err
	}
	return amem.SignExtend(raw, size), nil
}

// FetchFloatVar reads a floating variable's value.
func (t *Target) FetchFloatVar(id string) (float64, error) {
	e, err := t.Lookup(id)
	if err != nil {
		return 0, err
	}
	loc, err := t.WhereLoc(e)
	if err != nil {
		return 0, err
	}
	td := e.TypeDict()
	fs, ok := td.GetName("fsize")
	if !ok {
		return 0, fmt.Errorf("core: %s is not a floating variable", id)
	}
	return t.Frames[t.CurFrame].Mem.FetchFloat(loc, int(fs.I))
}

// Backtrace walks the whole stack and returns the procedure names,
// innermost first.
func (t *Target) Backtrace(limit int) ([]string, error) {
	var out []string
	for i := 0; i < limit; i++ {
		f, err := t.Frame(i)
		if err != nil {
			break
		}
		out = append(out, f.Proc())
		if f.Proc() == "_start" {
			break
		}
	}
	return out, nil
}

// RegsRaw reads the general registers and pc straight from the nub's
// context record — the machine-level view that needs no frames and no
// symbol table, used when the target is attached in degraded mode.
func (t *Target) RegsRaw() (regs []uint32, pc uint32, err error) {
	l := t.Arch.Context()
	regs = make([]uint32, len(l.RegOffs))
	for i, off := range l.RegOffs {
		v, err := t.Client.FetchInt(amem.Data, t.Client.CtxAddr+uint32(off), 4)
		if err != nil {
			return nil, 0, err
		}
		regs[i] = uint32(v)
	}
	v, err := t.Client.FetchInt(amem.Data, t.Client.CtxAddr+uint32(l.PCOff), 4)
	if err != nil {
		return nil, 0, err
	}
	return regs, uint32(v), nil
}

// ExamineBytes reads raw target memory — degraded mode's substitute for
// printing variables.
func (t *Target) ExamineBytes(addr uint32, n int) ([]byte, error) {
	return t.Client.FetchBytes(amem.Data, addr, n)
}

// BreakAddr plants a breakpoint at a raw code address — degraded mode's
// substitute for source positions. Unlike the stopping-point scheme,
// the address may hold any instruction: resuming restores it, retires
// it with one machine step, and replants the trap.
func (t *Target) BreakAddr(addr uint32) error { return t.Bpts.PlantRaw(addr) }

// Kill terminates the target.
func (t *Target) Kill() error {
	t.Exited = true
	return t.Client.Kill()
}

// Detach breaks the connection, leaving the nub waiting for another
// debugger.
func (t *Target) Detach() error { return t.Client.Detach() }
