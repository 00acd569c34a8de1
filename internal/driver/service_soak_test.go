package driver

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldb/internal/core"
	"ldb/internal/nub"
	"ldb/internal/nub/faultrw"
)

// The service soak: one debug-service endpoint carries 200 simultaneous
// sessions across every ISA while hostile peers spray junk at the same
// port and a third of the legitimate clients run over fault-injected
// wires that keep dying. Every session's transcript must come out
// byte-identical to a solo clean run of the same program — concurrency,
// eviction pressure, shared decode caches, reconnect-and-reattach, and
// harassment may move only performance counters, never debugger-visible
// bytes. Run under -race this is also the data-race gate for the whole
// session-multiplexing and cache-sharing seam.

const soakSessions = 200

// serviceSoakPrint is wirePrint without the testing.T: the soak's
// workers run off the test goroutine, where Fatalf is not allowed.
func serviceSoakPrint(d *core.Debugger, tgt *core.Target, name string) (string, error) {
	var buf strings.Builder
	old := d.In.Stdout
	d.In.Stdout = &buf
	defer func() { d.In.Stdout = old }()
	if err := tgt.Print(name); err != nil {
		return "", err
	}
	return strings.TrimRight(buf.String(), "\n"), nil
}

// serviceSoakScript is the fixed debug session every soak worker runs:
// break in fib, inspect locals, evaluate expressions, backtrace, then
// run to exit. Its output is the byte-equality oracle. A non-nil
// interrupt is invoked halfway through — between inspecting locals and
// evaluating expressions — and must leave the session attachable; it
// contributes nothing to the transcript, so an interrupted run must
// still come out byte-identical.
func serviceSoakScript(d *core.Debugger, tgt *core.Target, interrupt func() error) (string, error) {
	var tr strings.Builder
	say := func(format string, args ...any) { fmt.Fprintf(&tr, format+"\n", args...) }

	addr, err := tgt.BreakStop("fib", 7)
	if err != nil {
		return "", fmt.Errorf("break: %w", err)
	}
	say("break fib@7 at %#x", addr)
	ev, err := tgt.ContinueToBreakpoint()
	if err != nil {
		return "", fmt.Errorf("continue: %w", err)
	}
	if ev.Exited {
		return "", fmt.Errorf("exited before the breakpoint")
	}
	say("stopped pc=%#x sig=%v", ev.PC, ev.Sig)
	for _, name := range []string{"i", "n", "a"} {
		v, err := serviceSoakPrint(d, tgt, name)
		if err != nil {
			return "", fmt.Errorf("print %s: %w", name, err)
		}
		say("%s = %s", name, v)
	}
	if interrupt != nil {
		if err := interrupt(); err != nil {
			return "", fmt.Errorf("interrupt: %w", err)
		}
	}
	for _, expr := range []string{"a[i]", "a[i-1] + a[i-2]", "n"} {
		v, err := tgt.EvalInt(expr)
		if err != nil {
			return "", fmt.Errorf("eval %q: %w", expr, err)
		}
		say("eval %s = %d", expr, v)
	}
	bt, err := tgt.Backtrace(10)
	if err != nil {
		return "", fmt.Errorf("backtrace: %w", err)
	}
	say("backtrace: %s", strings.Join(bt, " <- "))
	if err := tgt.Bpts.RemoveAll(); err != nil {
		return "", fmt.Errorf("clear: %w", err)
	}
	ev, err = tgt.ContinueToBreakpoint()
	if err != nil {
		return "", fmt.Errorf("run to exit: %w", err)
	}
	if !ev.Exited {
		return "", fmt.Errorf("expected exit, stopped at %#x", ev.PC)
	}
	say("exit=%d", ev.Status)
	return tr.String(), nil
}

// soakServiceSession dials the service, opens a session of the given
// program, and runs the script. With an injector seed >= 0 the wire is
// fault-injected and kept dying underneath the session. A non-nil
// interrupt runs mid-script with the live client — the chaos soak's
// hook for detaching and riding a passivation/resurrection cycle.
func soakServiceSession(addr, program string, prog *Program, seed int64, interrupt func(*nub.Client) error) (string, nub.StatsSnapshot, error) {
	var inj *faultrw.Injector
	if seed >= 0 {
		inj = faultrw.New(seed, faultrw.Config{
			DropEvery:      2000,
			TruncateWrites: true,
			ChunkWrites:    true,
		})
	}
	dial := func() (io.ReadWriter, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			return inj.Wrap(conn), nil
		}
		return conn, nil
	}
	rw, err := dial()
	if err != nil {
		return "", nub.StatsSnapshot{}, err
	}
	defer func() {
		if cl, ok := rw.(io.Closer); ok {
			cl.Close()
		}
	}()
	client, err := nub.Connect(rw)
	if err != nil {
		return "", nub.StatsSnapshot{}, fmt.Errorf("connect: %w", err)
	}
	if inj != nil {
		inj.SetGate(client.Replayable)
	}
	client.SetRedial(dial)
	client.SetTimeout(2 * time.Second)
	client.SetRetries(8)
	if _, err := client.OpenSession(program); err != nil {
		return "", nub.StatsSnapshot{}, fmt.Errorf("open %s: %w", program, err)
	}
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		return "", nub.StatsSnapshot{}, err
	}
	tgt, err := d.AttachClient(program+":fib.c", client, prog.LoaderPS)
	if err != nil {
		return "", nub.StatsSnapshot{}, fmt.Errorf("attach: %w", err)
	}
	var mid func() error
	if interrupt != nil {
		mid = func() error { return interrupt(client) }
	}
	tr, err := serviceSoakScript(d, tgt, mid)
	if err != nil {
		return "", nub.StatsSnapshot{}, err
	}
	if cerr := client.CloseSession(); cerr != nil {
		return "", nub.StatsSnapshot{}, fmt.Errorf("close session: %w", cerr)
	}
	return tr, client.Stats(), nil
}

func TestServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	// Solo clean reference per architecture, over the in-memory
	// transport: the bytes every concurrent session must reproduce.
	progs := make(map[string]*Program, len(allArches))
	clean := make(map[string]string, len(allArches))
	for _, a := range allArches {
		prog, err := Build([]Source{{Name: "fib.c", Text: wireFibC}}, Options{Arch: a, Debug: true})
		if err != nil {
			t.Fatalf("%s: build: %v", a, err)
		}
		progs[a] = prog
		var sink strings.Builder
		d, err := core.New(&sink)
		if err != nil {
			t.Fatal(err)
		}
		client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := d.AttachClient("clean:"+a, client, prog.LoaderPS)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := serviceSoakScript(d, tgt, nil)
		if err != nil {
			t.Fatalf("%s: clean run: %v", a, err)
		}
		clean[a] = tr
	}

	// One endpoint for everything. The read deadline matches the
	// clients' own request timeout: under -race on two CPUs a server
	// goroutine can wait longer than 250 ms to read the rest of a
	// legitimate frame, and a shorter deadline drops honest opens. The
	// hostile trickle below still trips it.
	s := nub.NewService()
	s.ReadTimeout = 2 * time.Second
	for _, a := range allArches {
		prog := progs[a]
		s.Register(a, prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)
	defer s.Shutdown()
	addr := l.Addr().String()

	// Pre-warm: one clean session per architecture, so its close
	// publishes the program's decode products (the script unplants its
	// breakpoints before exiting, leaving the text pristine) and every
	// fleet session below attaches warm.
	for _, a := range allArches {
		tr, _, err := soakServiceSession(addr, a, progs[a], -1, nil)
		if err != nil {
			t.Fatalf("%s: pre-warm: %v", a, err)
		}
		if tr != clean[a] {
			t.Fatalf("%s: pre-warm transcript diverged:\n-- clean --\n%s\n-- service --\n%s", a, clean[a], tr)
		}
	}

	// Hostile peers hammer the same port for the soak's whole duration:
	// junk bytes, unknown kinds, session requests for programs that do
	// not exist, an oversize frame, and a trickled partial frame that
	// must trip the service's read deadline.
	stop := make(chan struct{})
	var hostileRounds atomic.Int64
	var hostileWG sync.WaitGroup
	payloads := [][]byte{
		append(frameBytes(t, &nub.Msg{Kind: nub.MsgKind(200)}),
			frameBytes(t, &nub.Msg{Kind: nub.MOpenSession, Data: []byte("no-such-program")})...),
		append(frameBytes(t, &nub.Msg{Kind: nub.MAttachSession, Val: ^uint64(0)}),
			oversizeFrame(t)...),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		frameBytes(t, &nub.Msg{Kind: nub.MFetchInt, Space: 'd', Addr: 16, Size: 4})[:9],
	}
	for w := 0; w < 4; w++ {
		hostileWG.Add(1)
		go func(w int) {
			defer hostileWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				_ = c.SetDeadline(time.Now().Add(5 * time.Second))
				_, _ = c.Write(payloads[(w+i)%len(payloads)])
				_, _ = io.Copy(io.Discard, c) // drain until dropped or replied-and-idle times out
				_ = c.Close()
				hostileRounds.Add(1)
			}
		}(w)
	}

	// The fleet: 200 simultaneous sessions, round-robin across the
	// ISAs, every third one over a fault-injected wire.
	type result struct {
		i   int
		a   string
		tr  string
		st  nub.StatsSnapshot
		err error
	}
	results := make(chan result, soakSessions)
	var wg sync.WaitGroup
	for i := 0; i < soakSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := allArches[i%len(allArches)]
			seed := int64(-1)
			if i%3 == 0 {
				seed = int64(1992 + i)
			}
			tr, st, err := soakServiceSession(addr, a, progs[a], seed, nil)
			results <- result{i: i, a: a, tr: tr, st: st, err: err}
		}(i)
	}
	wg.Wait()
	close(results)
	close(stop)
	hostileWG.Wait()

	var reconnects, replays int64
	diverged := 0
	for r := range results {
		if r.err != nil {
			t.Errorf("session %d (%s): %v", r.i, r.a, r.err)
			continue
		}
		if r.tr != clean[r.a] {
			diverged++
			if diverged <= 2 { // the first mismatches tell the story; 200 would drown it
				t.Errorf("session %d (%s) transcript diverged:\n-- clean --\n%s\n-- service --\n%s", r.i, r.a, clean[r.a], r.tr)
			}
		}
		reconnects += r.st.Reconnects
		replays += r.st.Replays
	}
	if diverged > 2 {
		t.Errorf("%d transcripts diverged in total", diverged)
	}
	if reconnects == 0 {
		t.Error("no reconnects across the faulty third; the wire faults never fired")
	}
	if hostileRounds.Load() == 0 {
		t.Error("no hostile rounds completed; the endpoint was never attacked")
	}

	// The endpoint must still be healthy, the pool drained, and the
	// shared decode cache must have carried the fleet: every fleet
	// session attached after the pre-warm publishes, so warm adoptions
	// must at least match the fleet size.
	tr, _, err := soakServiceSession(addr, allArches[0], progs[allArches[0]], -1, nil)
	if err != nil {
		t.Fatalf("post-soak session: %v", err)
	}
	if tr != clean[allArches[0]] {
		t.Errorf("post-soak transcript diverged")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := nub.Connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 0 {
		t.Errorf("pool not drained: %d sessions live", st.Live)
	}
	if want := int64(soakSessions + len(allArches) + 1); st.Opened < want {
		t.Errorf("opened = %d, want >= %d", st.Opened, want)
	}
	if st.SharedHits < soakSessions {
		t.Errorf("shared-cache hits = %d, want >= %d (fleet should attach warm)", st.SharedHits, soakSessions)
	}
	if st.SlowReads < 1 {
		t.Error("no slow read dropped; the trickled partial frame never tripped the read deadline")
	}
	t.Logf("sessions=%d reconnects=%d replays=%d hostile=%d peak=%d evicted=%d shared=%d/%d requests=%d slow=%d oversize=%d",
		soakSessions, reconnects, replays, hostileRounds.Load(),
		st.Peak, st.Evicted, st.SharedHits, st.SharedMisses, st.TotalRequests, st.SlowReads, st.OversizeRejects)
}
