package driver

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldb/internal/core"
	"ldb/internal/machine"
	"ldb/internal/nub"
)

// The chaos soak: the service soak's fleet again, but now the service
// itself is under attack from the inside. Checkpoints are taken every
// few thousand instructions, a fault hook crashes requests at random
// after scribbling over target memory, a third of the fleet runs over
// dying wires or detaches mid-script into a passivation/eviction cycle
// and resurrects from a stored checkpoint. The oracle is unchanged:
// every transcript must come out byte-identical to a clean solo run —
// crash-only recovery may move counters, never debugger-visible bytes.

// chaosDetach detaches mid-script and gives the passivation pumper a
// window to evict the session; the next request reconnects, re-attaches
// and — if the pumper won — resurrects the session from its stored
// checkpoint, all invisibly to the script.
func chaosDetach(c *nub.Client) error {
	if err := c.Detach(); err != nil {
		return fmt.Errorf("detach: %w", err)
	}
	time.Sleep(40 * time.Millisecond)
	return nil
}

func TestServiceChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	// Solo clean reference per architecture: the bytes every chaos'd
	// session must reproduce.
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

	// The service under chaos: checkpoints every few thousand simulated
	// instructions so resumes cross several auto-checkpoints, and a
	// fault hook that crashes roughly one request in thirteen on a third
	// of the sessions — after corrupting target memory the way a real
	// crashed handler might.
	s := nub.NewService()
	s.ReadTimeout = 2 * time.Second // the clients' request timeout; see TestServiceSoak
	s.CheckpointInterval = 4096
	var hookFired atomic.Int64
	var perID sync.Map
	s.FaultHook = func(id uint64, n *nub.Nub, req *nub.Msg) bool {
		if id%3 != 0 {
			return false
		}
		v, _ := perID.LoadOrStore(id, new(atomic.Int64))
		if v.(*atomic.Int64).Add(1)%13 != 5 {
			return false
		}
		_ = n.P.WriteBytes(machine.DataBase, []byte{0xde, 0xad, 0xbe, 0xef})
		_ = n.P.WriteBytes(machine.TextBase, []byte{0, 0, 0, 0})
		hookFired.Add(1)
		return true
	}
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

	// The passivation pumper: every few milliseconds, evict whatever is
	// idle. Sessions mid-request hold their binding token and are
	// untouchable; only the deliberately detached ones get passivated.
	stop := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.PassivateIdle(32)
			}
		}
	}()

	// Pre-warm one clean session per architecture so the fleet attaches
	// warm — and so the baseline holds with checkpointing armed.
	for _, a := range allArches {
		tr, _, err := soakServiceSession(addr, a, progs[a], -1, nil)
		if err != nil {
			t.Fatalf("%s: pre-warm: %v", a, err)
		}
		if tr != clean[a] {
			t.Fatalf("%s: pre-warm transcript diverged:\n-- clean --\n%s\n-- service --\n%s", a, clean[a], tr)
		}
	}

	// The fleet: 200 simultaneous sessions round-robin across the ISAs.
	// Every third one is chaos'd, alternating between a fault-injected
	// wire that keeps dying and a mid-script detach that rides a
	// passivation/resurrection cycle; the fault hook independently
	// crashes requests on a third of the session ids.
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
			var interrupt func(*nub.Client) error
			if i%3 == 0 {
				if (i/3)%2 == 0 {
					seed = int64(7711 + i)
				} else {
					interrupt = chaosDetach
				}
			}
			tr, st, err := soakServiceSession(addr, a, progs[a], seed, interrupt)
			results <- result{i: i, a: a, tr: tr, st: st, err: err}
		}(i)
	}
	wg.Wait()
	close(results)
	close(stop)
	pumpWG.Wait()

	var reconnects, replays int64
	diverged := 0
	for r := range results {
		if r.err != nil {
			t.Errorf("session %d (%s): %v", r.i, r.a, r.err)
			continue
		}
		if r.tr != clean[r.a] {
			diverged++
			if diverged <= 2 {
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
		t.Error("no reconnects; neither the dying wires nor the detaches fired")
	}
	if hookFired.Load() == 0 {
		t.Error("fault hook never crashed a request")
	}
	if replays == 0 {
		t.Error("no client replays; rolled-back requests were never retried")
	}

	// The endpoint must come out healthy — one more clean session, then
	// the crash-only counters must show the chaos actually happened and
	// the pool must be drained.
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
	if st.Passivated == 0 {
		t.Error("no sessions were passivated; the eviction chaos never fired")
	}
	if st.Resurrected == 0 {
		t.Error("no sessions were resurrected from a checkpoint")
	}
	if st.Rollbacks == 0 {
		t.Error("no rollbacks recorded despite injected crashes")
	}
	t.Logf("sessions=%d reconnects=%d replays=%d crashes=%d passivated=%d resurrected=%d rollbacks=%d evicted=%d",
		soakSessions, reconnects, replays, hookFired.Load(),
		st.Passivated, st.Resurrected, st.Rollbacks, st.Evicted)
}

// determinismScript is a seeded random debug session: a few rounds of
// plant/unplant churn on fib's loop body with random inspection between
// stops, then run to exit. The same seed must produce byte-identical
// transcripts on any transport — including one where requests keep
// crashing into checkpoint rollback and replay.
func determinismScript(rng *rand.Rand, d *core.Debugger, tgt *core.Target) (string, error) {
	var tr strings.Builder
	say := func(format string, args ...any) { fmt.Fprintf(&tr, format+"\n", args...) }
	rounds := 2 + rng.Intn(3) // fib@7 is hit 8 times; use at most 4
	for r := 0; r < rounds; r++ {
		addr, err := tgt.BreakStop("fib", 7)
		if err != nil {
			return "", fmt.Errorf("round %d: break: %w", r, err)
		}
		say("round %d: break fib@7 at %#x", r, addr)
		if rng.Intn(2) == 0 {
			// Churn the planted set: unplant everything and replant.
			if err := tgt.Bpts.RemoveAll(); err != nil {
				return "", fmt.Errorf("round %d: clear: %w", r, err)
			}
			if addr, err = tgt.BreakStop("fib", 7); err != nil {
				return "", fmt.Errorf("round %d: replant: %w", r, err)
			}
			say("round %d: replanted at %#x", r, addr)
		}
		ev, err := tgt.ContinueToBreakpoint()
		if err != nil {
			return "", fmt.Errorf("round %d: continue: %w", r, err)
		}
		if ev.Exited {
			return "", fmt.Errorf("round %d: exited before the breakpoint", r)
		}
		say("round %d: stopped pc=%#x", r, ev.PC)
		names := []string{"i", "n", "a"}
		name := names[rng.Intn(len(names))]
		v, err := serviceSoakPrint(d, tgt, name)
		if err != nil {
			return "", fmt.Errorf("round %d: print %s: %w", r, name, err)
		}
		say("%s = %s", name, v)
		exprs := []string{"a[i]", "a[i-1] + a[i-2]", "n", "i"}
		expr := exprs[rng.Intn(len(exprs))]
		x, err := tgt.EvalInt(expr)
		if err != nil {
			return "", fmt.Errorf("round %d: eval %q: %w", r, expr, err)
		}
		say("eval %s = %d", expr, x)
		if err := tgt.Bpts.RemoveAll(); err != nil {
			return "", fmt.Errorf("round %d: clear: %w", r, err)
		}
	}
	ev, err := tgt.ContinueToBreakpoint()
	if err != nil {
		return "", fmt.Errorf("run to exit: %w", err)
	}
	if !ev.Exited {
		return "", fmt.Errorf("expected exit, stopped at %#x", ev.PC)
	}
	say("exit=%d", ev.Status)
	return tr.String(), nil
}

// determinismClean runs the seeded script over the in-memory transport:
// the reference bytes.
func determinismClean(prog *Program, name string, seed int64) (string, error) {
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		return "", err
	}
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		return "", err
	}
	tgt, err := d.AttachClient("clean:"+name, client, prog.LoaderPS)
	if err != nil {
		return "", err
	}
	return determinismScript(rand.New(rand.NewSource(seed)), d, tgt)
}

// determinismService runs the same seeded script through a service
// session on the given endpoint.
func determinismService(addr, program string, prog *Program, seed int64) (string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	client, err := nub.Connect(conn)
	if err != nil {
		return "", fmt.Errorf("connect: %w", err)
	}
	client.SetTimeout(2 * time.Second)
	client.SetRetries(8)
	if _, err := client.OpenSession(program); err != nil {
		return "", fmt.Errorf("open %s: %w", program, err)
	}
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		return "", err
	}
	tgt, err := d.AttachClient(program+":fib.c", client, prog.LoaderPS)
	if err != nil {
		return "", fmt.Errorf("attach: %w", err)
	}
	tr, err := determinismScript(rand.New(rand.NewSource(seed)), d, tgt)
	if err != nil {
		return "", err
	}
	if cerr := client.CloseSession(); cerr != nil {
		return "", fmt.Errorf("close session: %w", cerr)
	}
	return tr, nil
}

// TestCheckpointReplayDeterminism is the checkpoint subsystem's
// property test, run end-to-end on every ISA: take a checkpoint, let a
// crashed request mutate live state, restore, replay the logged inputs
// — and the debugger-visible bytes must reconverge exactly, under a
// randomized interleaving of plant, unplant, resume and inspection
// requests. The fault hook corrupts both data and text before every
// injected crash, so any page the restore path misses shows up as a
// transcript diff.
func TestCheckpointReplayDeterminism(t *testing.T) {
	seeds := []int64{1, 2, 3}
	for _, a := range allArches {
		t.Run(a, func(t *testing.T) {
			prog, err := Build([]Source{{Name: "fib.c", Text: wireFibC}}, Options{Arch: a, Debug: true})
			if err != nil {
				t.Fatalf("build: %v", err)
			}

			s := nub.NewService()
			s.ReadTimeout = 2 * time.Second // the clients' request timeout; see TestServiceSoak
			s.CheckpointInterval = 2048
			var crashes atomic.Int64
			var perID sync.Map
			s.FaultHook = func(id uint64, n *nub.Nub, req *nub.Msg) bool {
				v, _ := perID.LoadOrStore(id, new(atomic.Int64))
				if v.(*atomic.Int64).Add(1)%13 != 5 {
					return false
				}
				_ = n.P.WriteBytes(machine.DataBase, []byte{0xde, 0xad, 0xbe, 0xef})
				_ = n.P.WriteBytes(machine.TextBase, []byte{0, 0, 0, 0})
				crashes.Add(1)
				return true
			}
			s.Register(a, prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go s.ServeListener(l)
			defer s.Shutdown()
			addr := l.Addr().String()

			for _, seed := range seeds {
				want, err := determinismClean(prog, a, seed)
				if err != nil {
					t.Fatalf("seed %d: clean run: %v", seed, err)
				}
				got, err := determinismService(addr, a, prog, seed)
				if err != nil {
					t.Fatalf("seed %d: service run: %v", seed, err)
				}
				if got != want {
					t.Errorf("seed %d: transcript diverged:\n-- clean --\n%s\n-- service --\n%s", seed, want, got)
				}
			}
			if crashes.Load() == 0 {
				t.Error("fault hook never crashed a request; rollback/replay was not exercised")
			}
		})
	}
}
