package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"time"

	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/machine"
	"ldb/internal/nub"
)

// cmd is a debugger command as a user issues it.
type cmd int

const (
	cmdAttach cmd = iota
	cmdBreak
	cmdContinue
	cmdPrint
	cmdEval
	cmdWhere
	cmdStep
	numCmds
)

var cmdNames = [numCmds]string{"attach", "break", "continue", "print", "eval", "where", "step"}

// counters are a target's cumulative simulator counters.
type counters struct {
	steps, decodes, invalidations, blocks, blockInsns int64
}

func fromProcess(p *machine.Process) counters {
	st := p.SimStats()
	return counters{p.Steps, st.Decodes, st.Invalidations, st.Blocks, st.BlockInsns}
}

// link is how a session reaches its target: an in-process nub over a
// pipe (the paper's forked child) or a session of the TCP debug service.
type link interface {
	// open starts the program and returns a connected client.
	open() (*nub.Client, error)
	// counters reads the target's simulator counters.
	counters() (counters, error)
	// output returns the program's standard output, when the debugger
	// can see it (the wire does not carry it).
	output() (string, bool)
	// close ends the session and releases the target.
	close() error
}

// pipeLink runs the target in-process, the "forked child" pair that
// nub.Launch builds (machine.New, nub.New, net.Pipe, Serve), built here
// so that close can wait for the nub's goroutine and, when traced, the
// client's end of the pipe can be wrapped.
type pipeLink struct {
	prog *driver.Program
	tr   *tracer // nil when untraced
	p    *machine.Process
	c    *nub.Client
	done chan struct{}
}

func (l *pipeLink) open() (*nub.Client, error) {
	img := l.prog.Image
	l.p = machine.New(l.prog.Arch, img.Text, img.Data, img.Entry)
	n := nub.New(l.p)
	a, b := net.Pipe()
	l.done = make(chan struct{})
	go func() {
		defer close(l.done)
		_ = n.Serve(b) // returns when the client closes its end
		b.Close()
	}()
	var conn net.Conn = a
	if l.tr != nil {
		conn = &wireConn{Conn: a, t: l.tr}
	}
	c, err := nub.Connect(conn)
	if err != nil {
		a.Close()
		return nil, err
	}
	l.c = c
	return c, nil
}

func (l *pipeLink) counters() (counters, error) { return fromProcess(l.p), nil }

func (l *pipeLink) output() (string, bool) { return l.p.Stdout.String(), true }

func (l *pipeLink) close() error {
	var err error
	if l.c != nil {
		err = l.c.Close()
	}
	if l.done != nil {
		<-l.done
	}
	return err
}

// tcpLink opens one session of the debug service on a client's
// long-lived connection.
type tcpLink struct {
	c       *nub.Client
	program string
	opened  bool
}

func (l *tcpLink) open() (*nub.Client, error) {
	if _, err := l.c.OpenSession(l.program); err != nil {
		return nil, err
	}
	l.opened = true
	return l.c, nil
}

func (l *tcpLink) counters() (counters, error) {
	st, err := l.c.SimStats()
	return counters{st.Steps, st.Decodes, st.Invalidations, st.Blocks, st.BlockInsns}, err
}

func (l *tcpLink) output() (string, bool) { return "", false }

func (l *tcpLink) close() error {
	if !l.opened {
		return nil
	}
	return l.c.CloseSession()
}

// session is one scripted debugging session. Commands latch the first
// error: after it every command is a no-op, so scripts read as straight
// command lists.
type session struct {
	cfg    int // index into the run's config order
	prog   *driver.Program
	link   link
	obs    observer
	d      *core.Debugger
	out    bytes.Buffer // the debugger's own output (print)
	tgt    *core.Target
	script strings.Builder
	err    error
}

// observer sees each timed command: the recorder that keeps latency
// samples, and in traced sessions the tracer too.
type observer interface {
	begin(s *session, c cmd)
	end(s *session, c cmd, elapsed time.Duration)
}

func (s *session) say(format string, args ...any) {
	fmt.Fprintf(&s.script, format+"\n", args...)
}

func (s *session) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// do runs one timed command.
func (s *session) do(c cmd, f func() error) bool {
	if s.err != nil {
		return false
	}
	s.obs.begin(s, c)
	t0 := time.Now()
	err := f()
	elapsed := time.Since(t0)
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", cmdNames[c], err))
		return false
	}
	s.obs.end(s, c, elapsed)
	return true
}

// attach starts the target and connects a debugger to it: from the
// pipe's set-up or OpenSession until AttachClient returns.
func (s *session) attach() {
	t0 := time.Now()
	d, err := core.New(&s.out)
	elapsed := time.Since(t0)
	if err != nil {
		s.fail(err)
		return
	}
	s.d = d
	if t, ok := s.obs.(*tracer); ok {
		t.startup(s, t0, elapsed)
	}
	s.do(cmdAttach, func() error {
		c, err := s.link.open()
		if err != nil {
			return err
		}
		s.tgt, err = d.AttachClient("prog", c, s.prog.LoaderPS)
		return err
	})
	if s.err != nil {
		return
	}
	if t, ok := s.obs.(*tracer); ok {
		t.attached(s)
	}
	s.say("attach")
}

// here names the current stop as proc@index, the address-free position
// every config agrees on.
func (s *session) here() string {
	f, err := s.tgt.Frame(0)
	if err != nil {
		s.fail(err)
		return ""
	}
	ctx, err := s.tgt.ContextAt(f)
	if err != nil {
		s.fail(err)
		return ""
	}
	idx := -1
	if ctx.Stop != nil {
		idx = ctx.Stop.Index
	}
	return fmt.Sprintf("%s@%d", ctx.ProcEntryName, idx)
}

func (s *session) breakStop(proc string, index int) {
	if s.do(cmdBreak, func() error { _, err := s.tgt.BreakStop(proc, index); return err }) {
		s.say("break %s@%d", proc, index)
	}
}

func (s *session) breakProc(proc string) {
	if s.do(cmdBreak, func() error { _, err := s.tgt.BreakProc(proc); return err }) {
		s.say("break %s", proc)
	}
}

// cont continues to the next breakpoint hit; exiting instead is an
// error, so the continue population never contains a run to exit.
func (s *session) cont() {
	var exited bool
	if s.do(cmdContinue, func() error {
		ev, err := s.tgt.ContinueToBreakpoint()
		exited = err == nil && ev.Exited
		return err
	}) {
		if exited {
			s.fail(fmt.Errorf("continue: target exited before the breakpoint"))
			return
		}
		s.say("hit %s", s.here())
	}
}

func (s *session) print(name string) {
	s.out.Reset()
	if s.do(cmdPrint, func() error { return s.tgt.Print(name) }) {
		s.say("print %s = %s", name, strings.TrimRight(s.out.String(), "\n"))
	}
}

func (s *session) eval(expr string) {
	var v int64
	if s.do(cmdEval, func() error { var err error; v, err = s.tgt.EvalInt(expr); return err }) {
		s.say("eval %s = %d", expr, v)
	}
}

// maxFrames bounds where; the deepest script stops 11 frames down.
const maxFrames = 64

func (s *session) where() {
	var names []string
	if s.do(cmdWhere, func() error { var err error; names, err = s.tgt.Backtrace(maxFrames); return err }) {
		if t, ok := s.obs.(*tracer); ok {
			t.frames += int64(len(names))
		}
		s.say("where %s", strings.Join(names, " <- "))
	}
}

func (s *session) step() {
	var exited bool
	var status int
	if s.do(cmdStep, func() error {
		ev, err := s.tgt.Step()
		if err == nil && ev.Exited {
			exited, status = true, ev.Status
		}
		return err
	}) {
		if exited {
			s.say("step exit %d", status)
			return
		}
		s.say("step %s", s.here())
	}
}

// finish clears every breakpoint and runs to exit (untimed: it counts
// only in sessions per second).
func (s *session) finish() {
	if s.err != nil {
		return
	}
	if err := s.tgt.Bpts.RemoveAll(); err != nil {
		s.fail(fmt.Errorf("clear: %w", err))
		return
	}
	ev, err := s.tgt.ContinueToBreakpoint()
	if err != nil {
		s.fail(fmt.Errorf("run to exit: %w", err))
		return
	}
	if !ev.Exited {
		s.fail(fmt.Errorf("run to exit: stopped at %#x", ev.PC))
		return
	}
	s.say("clear")
	s.say("exit %d", ev.Status)
}

// kill terminates the target (untimed).
func (s *session) kill() {
	if s.err != nil {
		return
	}
	if err := s.tgt.Kill(); err != nil {
		s.fail(fmt.Errorf("kill: %w", err))
		return
	}
	s.say("kill")
}

// close ends the session and returns its transcript: the script lines
// plus the program's output where the debugger can see it.
func (s *session) close() (string, error) {
	if out, ok := s.link.output(); ok && s.err == nil {
		s.say("output %q", out)
	}
	t, traced := s.obs.(*tracer)
	if traced && s.err == nil {
		t.closing(s)
	}
	s.fail(s.link.close())
	if traced {
		t.endSession()
	}
	return s.script.String(), s.err
}
