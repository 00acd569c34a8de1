// ldb is the retargetable source-level debugger. It debugs C programs
// compiled by cmd/lcc with -g for any of the simulated targets, over an
// in-process "child" connection or a network connection to a waiting
// nub, and can debug several targets — on different architectures — in
// one session.
//
// Usage:
//
//	ldb prog.img prog.ldb          debug prog as a child process
//	ldb -attach host:port prog.ldb attach to a nub over the network
//	ldb -attach host:port          attach without symbols (machine-level)
//	ldb -serve :port a.img [b.img ...]
//	                               run a debug service: each image is a
//	                               spawnable program, every connection
//	                               its own session; a plain -attach
//	                               binds the default session of a.img
//	ldb -attach host:port -session NAME prog.ldb
//	                               open a fresh session of a registered
//	                               program on a debug service
//
// If the loader table is missing, unreadable, or fails validation, the
// session degrades to machine-level debugging (regs, x, break *ADDR,
// stepi) with a one-line warning instead of exiting.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
	"ldb/internal/core"
	"ldb/internal/link"
	"ldb/internal/nub"
	"ldb/internal/ps"
)

func main() {
	attach := flag.String("attach", "", "attach to a nub at host:port")
	serve := flag.String("serve", "", "serve the images as a debug service at this address")
	session := flag.String("session", "", "with -attach: open this registered program as a new session")
	ckpt := flag.Int64("ckpt", 0, "with -serve: checkpoint interval in simulated instructions (0 default, negative disables crash-only protection)")
	ckdir := flag.String("ckdir", "", "with -serve: spill passivated session checkpoints into this directory")
	flag.Parse()

	if *serve != "" {
		serveMode(*serve, *ckpt, *ckdir, flag.Args())
		return
	}

	d, err := core.New(os.Stdout)
	if err != nil {
		fatal(err)
	}
	switch {
	case *attach != "":
		// A missing or unreadable loader table is not fatal: the session
		// starts in machine-level mode instead.
		loader := ""
		if flag.NArg() >= 1 {
			if data, err := os.ReadFile(flag.Arg(0)); err != nil {
				fmt.Fprintln(os.Stderr, "ldb:", err)
			} else {
				loader = string(data)
			}
		}
		client, _, err := nub.Dial(*attach)
		if err != nil {
			fatal(err)
		}
		// Against a debug service, -session NAME spawns a fresh target
		// of a registered program; without it, the connection binds the
		// service's default session.
		if *session != "" {
			if !client.Sessions() {
				fatal(fmt.Errorf("-session: %s is not a debug service", *attach))
			}
			if _, err := client.OpenSession(*session); err != nil {
				fatal(err)
			}
		} else if client.Sessions() {
			if _, err := client.AttachSession(0); err != nil {
				fatal(err)
			}
		}
		_, warning, err := d.AttachDegraded(*attach, client, loader)
		if err != nil {
			fatal(err)
		}
		if warning != "" {
			fmt.Println("ldb:", warning)
		}
	case flag.NArg() >= 2:
		if err := launchChild(d, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ldb prog.img prog.ldb | ldb -attach host:port prog.ldb")
		os.Exit(2)
	}
	repl(d)
}

// serveMode runs a debug service on the network: every image on the
// command line is registered as a spawnable program, and each
// connection gets its own session — §4.2's target-is-not-a-child
// arrangement, but for many debuggers at once, with decode caches
// shared between sessions of the same image. A plain -attach binds the
// default session, a session of the first image opened on the first
// such attach — the paper's single-target arrangement. Sessions are
// crash-only: evicted ones passivate into checkpoints (spilled to ckdir
// if given) and resurrect on re-attach; a negative ckpt interval turns
// all of that off.
func serveMode(addr string, ckpt int64, ckdir string, args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("usage: ldb -serve :port prog.img [more.img ...]"))
	}
	s := nub.NewService()
	s.CheckpointInterval = ckpt
	s.PassivateDir = ckdir
	var names []string
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		img, err := link.DecodeImage(data)
		if err != nil {
			fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".img")
		s.Register(name, img.Arch, img.Text, img.Data, img.Entry)
		names = append(names, fmt.Sprintf("%s (%s)", name, img.Arch.Name()))
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("debug service listening on %s\n", l.Addr())
	fmt.Printf("programs: %s\n", strings.Join(names, ", "))
	fmt.Printf("a plain attach binds the default %s session; -session NAME opens more\n", names[0])
	s.ServeListener(l)
}

func launchChild(d *core.Debugger, imgPath, ldbPath string) error {
	data, err := os.ReadFile(imgPath)
	if err != nil {
		return err
	}
	img, err := link.DecodeImage(data)
	if err != nil {
		return err
	}
	// A broken loader table degrades the session rather than ending it.
	loader := ""
	if data, err := os.ReadFile(ldbPath); err != nil {
		fmt.Fprintln(os.Stderr, "ldb:", err)
	} else {
		loader = string(data)
	}
	client, _, proc, err := nub.Launch(img.Arch, img.Text, img.Data, img.Entry)
	if err != nil {
		return err
	}
	tgt, warning, err := d.AttachDegraded(imgPath, client, loader)
	if err != nil {
		return err
	}
	if warning != "" {
		fmt.Println("ldb:", warning)
	}
	tgt.Stdout = &proc.Stdout
	fmt.Printf("%s (%s) stopped before main\n", imgPath, img.Arch.Name())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldb:", err)
	os.Exit(1)
}

const helpText = `commands:
  break PROC | break FILE:LINE | break PROC@N   plant a breakpoint
  break *ADDR                                   breakpoint at a raw code address
  clear                                         remove all breakpoints
  stops PROC                                    list stopping points
  cond PROC@N EXPR                              conditional breakpoint
  recover                                       adopt breakpoints left by a lost debugger
  continue (c)                                  resume (honoring conditions)
  step (s) | next (n) | finish                  source-level stepping
  stepi (si)                                    step one machine instruction
  x ADDR [LEN]                                  dump raw target memory
  print NAME (p)                                print a variable via its type's printer
  eval EXPR (e) | = EXPR                        evaluate through the expression server
                                                (assignments and procedure calls included)
  where (bt)                                    walk the stack
  frame N                                       select a frame
  regs                                          show the frame's registers
  dag                                           show the frame's abstract-memory DAG
  stats [reset]                                 show (or zero) wire, simulator, and service statistics
  batch on|off | cache on|off                   toggle wire batching / memory cache
  wire [timeout DUR | retry N]                  show or set wire deadline / reconnect retries
  targets | target N                            list / switch targets
  ps CODE                                       run raw PostScript
  detach | kill | quit                          end the session
`

func repl(d *core.Debugger) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("(ldb) ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := command(d, line); quit {
				return
			}
		}
		fmt.Print("(ldb) ")
	}
}

func command(d *core.Debugger, line string) bool {
	t := d.Current()
	fields := strings.Fields(line)
	cmd, rest := fields[0], strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
	say := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	need := func() bool {
		if t == nil {
			say("no target")
			return false
		}
		return true
	}
	switch cmd {
	case "help", "h":
		fmt.Print(helpText)
	case "quit", "q":
		return true
	case "break", "b":
		if !need() {
			return false
		}
		switch {
		case strings.HasPrefix(rest, "*"):
			a, err := strconv.ParseUint(strings.TrimPrefix(rest, "*"), 0, 32)
			if err != nil {
				say("bad address")
				return false
			}
			if err := t.BreakAddr(uint32(a)); err != nil {
				say("%v", err)
				return false
			}
			say("breakpoint at %#x", uint32(a))
		case strings.Contains(rest, ":"):
			i := strings.LastIndex(rest, ":")
			n, err := strconv.Atoi(rest[i+1:])
			if err != nil {
				say("bad line number")
				return false
			}
			addrs, err := t.BreakLine(rest[:i], n)
			if err != nil {
				say("%v", err)
				return false
			}
			for _, a := range addrs {
				say("breakpoint at %#x", a)
			}
		case strings.Contains(rest, "@"):
			i := strings.Index(rest, "@")
			n, err := strconv.Atoi(rest[i+1:])
			if err != nil {
				say("bad stopping point")
				return false
			}
			addr, err := t.BreakStop(rest[:i], n)
			if err != nil {
				say("%v", err)
				return false
			}
			say("breakpoint at %#x (stop %d of %s)", addr, n, rest[:i])
		default:
			addr, err := t.BreakProc(rest)
			if err != nil {
				say("%v", err)
				return false
			}
			say("breakpoint at %#x (%s)", addr, rest)
		}
	case "clear":
		if need() {
			if err := t.Bpts.RemoveAll(); err != nil {
				say("%v", err)
			}
		}
	case "stops":
		if !need() {
			return false
		}
		stops, _, err := t.ProcStops(rest)
		if err != nil {
			say("%v", err)
			return false
		}
		for _, s := range stops {
			say("  %2d  line %d col %d", s.Index, s.Line, s.Col)
		}
	case "continue", "c", "run", "r":
		if !need() {
			return false
		}
		ev, err := t.ContinueConditional()
		if err != nil {
			say("%v", err)
			return false
		}
		report(d, t, ev)
	case "step", "s", "next", "n", "finish":
		if !need() {
			return false
		}
		var ev *nub.Event
		var err error
		switch cmd {
		case "step", "s":
			ev, err = t.Step()
		case "next", "n":
			ev, err = t.Next()
		default:
			ev, err = t.Finish()
		}
		if err != nil {
			say("%v", err)
			return false
		}
		report(d, t, ev)
	case "stepi", "si":
		if !need() {
			return false
		}
		ev, err := t.StepInst()
		if err != nil {
			say("%v", err)
			return false
		}
		report(d, t, ev)
	case "x":
		if !need() {
			return false
		}
		args := strings.Fields(rest)
		if len(args) < 1 || len(args) > 2 {
			say("usage: x ADDR [LEN]")
			return false
		}
		a, err := strconv.ParseUint(args[0], 0, 32)
		if err != nil {
			say("bad address")
			return false
		}
		count := 16
		if len(args) == 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 || n > 4096 {
				say("bad length (1..4096)")
				return false
			}
			count = n
		}
		b, err := t.ExamineBytes(uint32(a), count)
		if err != nil {
			say("%v", err)
			return false
		}
		for off := 0; off < len(b); off += 16 {
			end := off + 16
			if end > len(b) {
				end = len(b)
			}
			var sb strings.Builder
			for i := off; i < end; i++ {
				fmt.Fprintf(&sb, " %02x", b[i])
			}
			say("%#010x %s", uint32(a)+uint32(off), sb.String())
		}
	case "cond":
		if !need() {
			return false
		}
		parts := strings.SplitN(rest, " ", 2)
		if len(parts) != 2 || !strings.Contains(parts[0], "@") {
			say("usage: cond PROC@N EXPR")
			return false
		}
		at := strings.Index(parts[0], "@")
		n, err := strconv.Atoi(parts[0][at+1:])
		if err != nil {
			say("bad stopping point")
			return false
		}
		addr, err := t.BreakStopIf(parts[0][:at], n, parts[1])
		if err != nil {
			say("%v", err)
			return false
		}
		say("conditional breakpoint at %#x when %s", addr, parts[1])
	case "recover":
		if !need() {
			return false
		}
		addrs, err := t.RecoverBreakpoints()
		if err != nil {
			say("%v", err)
			return false
		}
		say("recovered %d breakpoint(s)", len(addrs))
	case "print", "p":
		if !need() {
			return false
		}
		if err := t.Print(rest); err != nil {
			say("%v", err)
		}
	case "eval", "e", "=":
		if !need() {
			return false
		}
		o, err := t.Eval(rest)
		if err != nil {
			say("%v", err)
			return false
		}
		say("%s", ps.Cvs(o))
	case "where", "bt":
		if !need() {
			return false
		}
		bt, _ := t.Backtrace(32)
		for i, name := range bt {
			mark := "  "
			if i == t.CurFrame {
				mark = "* "
			}
			f, _ := t.Frame(i)
			say("%s#%d %s pc=%#x", mark, i, name, f.PC)
		}
	case "frame", "f":
		if !need() {
			return false
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			say("bad frame number")
			return false
		}
		if err := t.SelectFrame(n); err != nil {
			say("%v", err)
		}
	case "regs":
		if !need() {
			return false
		}
		showRegs(d, t)
	case "dag":
		if !need() {
			return false
		}
		f, err := t.Frame(t.CurFrame)
		if err != nil {
			say("%v", err)
			return false
		}
		fmt.Print(f.Describe())
	case "stats":
		if !need() {
			return false
		}
		if rest == "reset" {
			t.Client.ResetStats()
			say("wire statistics reset")
			return false
		}
		say("%s", t.Client.Stats())
		// Then the endpoint's counters, one line per group: nub and sim,
		// and service when the endpoint is a debug service.
		ms, err := t.Client.Metrics()
		if err != nil {
			say("metrics: %v", err)
		}
		var line []string
		for i, m := range ms {
			g, name, _ := strings.Cut(m.Name, ".")
			line = append(line, fmt.Sprintf("%s=%d", name, m.Value))
			if i+1 == len(ms) || !strings.HasPrefix(ms[i+1].Name, g+".") {
				say("%s: %s", g, strings.Join(line, " "))
				line = nil
			}
		}
	case "wire":
		if !need() {
			return false
		}
		args := strings.Fields(rest)
		switch {
		case len(args) == 0:
			say("timeout %v, %d reconnect retries", t.Client.Timeout(), t.Client.Retries())
		case args[0] == "timeout" && len(args) == 2:
			dur, err := time.ParseDuration(args[1])
			if err != nil || dur < 0 {
				say("bad duration %q (try 5s, 500ms; 0 disables)", args[1])
				return false
			}
			t.Client.SetTimeout(dur)
			say("wire timeout %v", dur)
		case args[0] == "retry" && len(args) == 2:
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				say("bad retry count %q", args[1])
				return false
			}
			t.Client.SetRetries(n)
			say("wire retry %d", n)
		default:
			say("usage: wire | wire timeout DUR | wire retry N")
			return false
		}
	case "batch", "cache":
		if !need() {
			return false
		}
		var on bool
		switch rest {
		case "on":
			on = true
		case "off":
		default:
			say("usage: %s on|off", cmd)
			return false
		}
		if cmd == "batch" {
			t.Client.SetBatching(on)
		} else {
			t.Client.SetCaching(on)
		}
		say("%s %s", cmd, rest)
	case "targets":
		for i, tg := range d.Targets {
			mark := "  "
			if tg == d.Current() {
				mark = "* "
			}
			state := "stopped"
			if tg.Exited {
				state = fmt.Sprintf("exited(%d)", tg.ExitStatus)
			}
			say("%s#%d %s (%s) %s", mark, i, tg.Name, tg.Arch.Name(), state)
		}
	case "target":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 || n >= len(d.Targets) {
			say("bad target number")
			return false
		}
		d.Switch(d.Targets[n])
		say("now debugging %s (%s)", d.Targets[n].Name, d.Targets[n].Arch.Name())
	case "ps":
		if err := d.In.RunString(rest); err != nil {
			say("%v", err)
		}
	case "detach":
		if need() {
			if err := t.Detach(); err != nil {
				say("%v", err)
			}
		}
	case "kill":
		if need() {
			if err := t.Kill(); err != nil {
				say("%v", err)
			}
		}
	default:
		say("unknown command %q (try help)", cmd)
	}
	return false
}

func report(d *core.Debugger, t *core.Target, ev *nub.Event) {
	if ev.Exited {
		fmt.Printf("target exited with status %d\n", ev.Status)
		if t.Stdout != nil {
			fmt.Printf("--- target output ---\n%s", t.Stdout.String())
		}
		return
	}
	where := fmt.Sprintf("pc=%#x", ev.PC)
	if f, err := t.Frame(0); err == nil {
		where = fmt.Sprintf("%s pc=%#x", f.Proc(), ev.PC)
	}
	switch {
	case t.Bpts.IsPlanted(ev.PC):
		fmt.Printf("breakpoint: %s\n", where)
	case ev.Sig == arch.SigTrap && ev.Code == arch.TrapStep:
		fmt.Printf("stepped: %s\n", where)
	default:
		fmt.Printf("signal %v (code %d): %s\n", ev.Sig, ev.Code, where)
	}
}

func showRegs(d *core.Debugger, t *core.Target) {
	if t.Degraded() {
		regs, pc, err := t.RegsRaw()
		if err != nil {
			fmt.Println(err)
			return
		}
		for i, v := range regs {
			fmt.Printf("%6s %#010x", t.Arch.RegName(i), v)
			if (i+1)%4 == 0 {
				fmt.Println()
			} else {
				fmt.Print("  ")
			}
		}
		fmt.Printf("\n%6s %#010x\n", "pc", pc)
		return
	}
	f, err := t.Frame(t.CurFrame)
	if err != nil {
		fmt.Println(err)
		return
	}
	for i := 0; i < t.Arch.NumRegs(); i++ {
		v, err := f.Mem.FetchInt(amem.Abs(amem.Reg, int64(i)), 4)
		if err != nil {
			continue // unaliased in this frame
		}
		fmt.Printf("%6s %#010x", t.Arch.RegName(i), v)
		if (i+1)%4 == 0 {
			fmt.Println()
		} else {
			fmt.Print("  ")
		}
	}
	fmt.Printf("\n%6s %#010x\n", "pc", f.PC)
}
