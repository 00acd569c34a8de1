package nub

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/machine"
)

// startService builds a service with every test architecture's program
// registered under the architecture's name, serving on a loopback TCP
// listener. Shutdown runs at test cleanup.
func startService(t *testing.T, cfg func(*Service)) (*Service, string) {
	t.Helper()
	s := NewService()
	for _, a := range allArches {
		s.Register(a.Name(), a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	}
	if cfg != nil {
		cfg(s)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)
	t.Cleanup(s.Shutdown)
	return s, l.Addr().String()
}

// TestServiceOpenRunClose drives one session through its life: lobby
// welcome, open, run to the embedded trap, fetch the store it made,
// close, and open a fresh one on the same connection.
func TestServiceOpenRunClose(t *testing.T) {
	_, addr := startService(t, nil)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !c.Sessions() {
		t.Fatal("lobby welcome did not advertise sessions")
	}
	if c.ArchName != "" || c.SessionID() != 0 {
		t.Fatalf("lobby client has identity already: %q session %d", c.ArchName, c.SessionID())
	}
	ev, err := c.OpenSession("mips")
	if err != nil {
		t.Fatal(err)
	}
	if c.ArchName != "mips" || c.SessionID() == 0 {
		t.Fatalf("after open: arch %q session %d", c.ArchName, c.SessionID())
	}
	if ev.Exited || ev.Sig != arch.SigTrap || ev.Code != arch.TrapPause {
		t.Fatalf("first event = %v", ev)
	}
	if ev, err = c.Continue(); err != nil || ev.Sig != arch.SigTrap || ev.Code != 3 {
		t.Fatalf("continue: %v, %v", ev, err)
	}
	v, err := c.FetchInt(amem.Data, machine.DataBase, 4)
	if err != nil || v != 42 {
		t.Fatalf("fetch = %d, %v", v, err)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if c.SessionID() != 0 {
		t.Fatalf("session id survives close: %d", c.SessionID())
	}
	// The connection is back in the lobby; target requests must be
	// refused, and a new session must open.
	if _, err := c.FetchInt(amem.Data, machine.DataBase, 4); err == nil || !strings.Contains(err.Error(), "no session bound") {
		t.Fatalf("lobby fetch: %v", err)
	}
	if _, err := c.OpenSession("sparc"); err != nil {
		t.Fatal(err)
	}
	if c.ArchName != "sparc" {
		t.Fatalf("rebound arch = %q", c.ArchName)
	}
}

// TestServiceAllISAs opens a session of each registered architecture
// through one endpoint and runs each to its trap — the pool really does
// spawn every ISA on demand.
func TestServiceAllISAs(t *testing.T) {
	_, addr := startService(t, nil)
	for _, a := range allArches {
		c, conn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.OpenSession(a.Name()); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if ev, err := c.Continue(); err != nil || ev.Exited || ev.Sig != arch.SigTrap {
			t.Fatalf("%s continue: %v, %v", a.Name(), ev, err)
		}
		if v, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 42 {
			t.Fatalf("%s fetch = %d, %v", a.Name(), v, err)
		}
		conn.Close()
	}
}

// TestServiceDetachAttachResumes detaches from a session and re-attaches
// from a new connection: the target's state survives the connection, as
// a single-target nub's does, but addressed by session id.
func TestServiceDetachAttachResumes(t *testing.T) {
	_, addr := startService(t, nil)
	c1, conn1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	if _, err := c1.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	id := c1.SessionID()
	if ev, err := c1.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("continue: %v, %v", ev, err)
	}
	if err := c1.Detach(); err != nil {
		t.Fatal(err)
	}
	conn1.Close()

	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ev, err := c2.AttachSession(id)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed event is the trap the first connection stopped at.
	if ev.Exited || ev.Sig != arch.SigTrap || ev.Code != 3 {
		t.Fatalf("replayed event = %v", ev)
	}
	if c2.ArchName != "mips" || c2.SessionID() != id {
		t.Fatalf("attached identity: %q session %d", c2.ArchName, c2.SessionID())
	}
	if v, err := c2.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 42 {
		t.Fatalf("fetch after attach = %d, %v", v, err)
	}
	if _, err := c2.AttachSession(999); err == nil {
		t.Fatal("attach to unknown session succeeded")
	}
}

// TestServiceReconnectReattaches severs a session-bound connection
// under the client and checks the next request rides the reconnect
// path: redial, lobby welcome, re-attach by session id, resync.
func TestServiceReconnectReattaches(t *testing.T) {
	_, addr := startService(t, nil)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	id := c.SessionID()
	if ev, err := c.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("continue: %v, %v", ev, err)
	}
	conn.Close() // sever under the client
	v, err := c.FetchInt(amem.Data, machine.DataBase, 4)
	if err != nil || v != 42 {
		t.Fatalf("fetch across reconnect = %d, %v", v, err)
	}
	if c.SessionID() != id {
		t.Fatalf("reconnect changed session: %d -> %d", id, c.SessionID())
	}
	if c.Stats().Reconnects == 0 {
		t.Fatal("no reconnect recorded")
	}
}

// TestServiceDefaultSession is the paper's single-target attach on the
// service: attaching to id 0 binds a session of the first registered
// program, paused at its trap; a later connection attaching to id 0
// after a detach — or after the session was passivated — sees the same
// stop; and once the session is killed or closed, id 0 opens a fresh
// one. A connection bound to the default session can still open pool
// sessions.
func TestServiceDefaultSession(t *testing.T) {
	s, addr := startService(t, nil)
	if s.Sessions() != 0 {
		t.Fatal("service spawned a session before any attach")
	}
	attach0 := func() (*Client, net.Conn) {
		t.Helper()
		c, conn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := c.AttachSession(0); err != nil {
			t.Fatal(err)
		}
		return c, conn
	}

	c, conn := attach0()
	id := c.SessionID()
	if id == 0 || c.ArchName != allArches[0].Name() {
		t.Fatalf("default session: id %d arch %q", id, c.ArchName)
	}
	if c.Last.Sig != arch.SigTrap || c.Last.Code != arch.TrapPause {
		t.Fatalf("default first event = %v", c.Last)
	}
	if ev, err := c.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("default continue: %v, %v", ev, err)
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A second connection sees the same target where it stopped, then
	// rebinds to a pool session of a different architecture.
	c, conn = attach0()
	if c.SessionID() != id || c.Last.Code != 3 {
		t.Fatalf("second attach: session %d event %v, want session %d code 3", c.SessionID(), c.Last, id)
	}
	if _, err := c.OpenSession("vax"); err != nil {
		t.Fatal(err)
	}
	if c.ArchName != "vax" {
		t.Fatalf("rebound arch = %q", c.ArchName)
	}
	conn.Close()

	// Passivated, the default session resurrects on the next attach.
	deadline := time.Now().Add(5 * time.Second)
	for s.PassivateIdle(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("default session never came idle")
		}
		time.Sleep(time.Millisecond)
	}
	c, _ = attach0()
	if c.SessionID() != id || c.Last.Code != 3 {
		t.Fatalf("resurrected: session %d event %v, want session %d code 3", c.SessionID(), c.Last, id)
	}

	// Killed, and then closed: each time id 0 opens a fresh session.
	if err := c.Kill(); err != nil {
		t.Fatal(err)
	}
	c, _ = attach0()
	if c.SessionID() == id || c.Last.Code != arch.TrapPause {
		t.Fatalf("attach after kill: session %d event %v, want a fresh session", c.SessionID(), c.Last)
	}
	id = c.SessionID()
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	c, _ = attach0()
	if c.SessionID() == id || c.Last.Code != arch.TrapPause {
		t.Fatalf("attach after close: session %d event %v, want a fresh session", c.SessionID(), c.Last)
	}
}

// While the default session is bound, an attach to id 0 reports it busy
// once AttachWait runs out, and the connection stays in the lobby, free
// to open a session of its own.
func TestServiceDefaultSessionBusy(t *testing.T) {
	_, addr := startService(t, func(s *Service) { s.AttachWait = 50 * time.Millisecond })
	c1, conn1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	if _, err := c1.AttachSession(0); err != nil {
		t.Fatal(err)
	}

	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := c2.AttachSession(0); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("attach to a bound default session: %v", err)
	}
	if c2.SessionID() != 0 || c2.ArchName != "" {
		t.Fatalf("refused attach left session %d arch %q, want the lobby", c2.SessionID(), c2.ArchName)
	}
	if _, err := c2.OpenSession("sparc"); err != nil {
		t.Fatal(err)
	}
	// The default session was untouched throughout.
	if ev, err := c1.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("default continue: %v, %v", ev, err)
	}
}

// Concurrent first attaches to id 0 on a fresh service bind one session:
// one connection gets it, the other waits and reports it busy.
func TestServiceDefaultSessionConcurrentAttach(t *testing.T) {
	s, addr := startService(t, func(s *Service) { s.AttachWait = 50 * time.Millisecond })
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		c, conn, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.AttachSession(0)
		}()
	}
	wg.Wait()
	bound := 0
	for i, err := range errs {
		switch {
		case err == nil:
			bound++
		case !strings.Contains(err.Error(), "busy"):
			t.Errorf("attach %d: %v", i, err)
		}
	}
	if bound != 1 {
		t.Fatalf("attaches bound %d sessions (errors %v), want exactly one", bound, errs)
	}
	if n := s.Sessions(); n != 1 {
		t.Fatalf("pool holds %d sessions, want 1", n)
	}
}

// TestServiceLRUEviction caps the pool at two sessions and opens three:
// the least recently used idle session is evicted to make room —
// passivated, so an attach to it resurrects it transparently (evicting
// someone else in turn). With passivation disabled, the attach reports
// the session gone, as eviction always did.
func TestServiceLRUEviction(t *testing.T) {
	s, addr := startService(t, func(s *Service) { s.MaxSessions = 2 })
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	first := c.SessionID()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if got := s.Sessions(); got != 2 {
		t.Fatalf("pool holds %d sessions, want 2", got)
	}
	if _, err := c.AttachSession(first); err != nil {
		t.Fatalf("attach to evicted session should resurrect it: %v", err)
	}
	if c.SessionID() != first {
		t.Fatalf("resurrected session id = %d, want %d", c.SessionID(), first)
	}
	st, err := c.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 2 || st.Peak != 2 || st.Opened != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Evicted < 2 || st.Passivated < 2 || st.Resurrected != 1 {
		t.Fatalf("lifecycle stats = %+v, want ≥2 evicted/passivated and 1 resurrected", st)
	}
}

// TestServiceEvictionWithoutPassivation pins the pre-crash-only
// behavior: with checkpoints disabled, an evicted session is simply
// gone.
func TestServiceEvictionWithoutPassivation(t *testing.T) {
	s, addr := startService(t, func(s *Service) { s.MaxSessions = 2; s.CheckpointInterval = -1 })
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	first := c.SessionID()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachSession(first); err == nil || !strings.Contains(err.Error(), "no such session") {
		t.Fatalf("attach to evicted session: %v", err)
	}
	if got := s.Sessions(); got != 2 {
		t.Fatalf("pool holds %d sessions, want 2", got)
	}
}

// TestServiceCapacityAllBusy: when every session is bound, open fails
// instead of evicting someone's live debugging session.
func TestServiceCapacityAllBusy(t *testing.T) {
	_, addr := startService(t, func(s *Service) { s.MaxSessions = 1 })
	c1, conn1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	if _, err := c1.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := c2.OpenSession("mips"); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("open at capacity: %v", err)
	}
}

// TestServiceWarmAttachZeroDecodes is the shared-decode-cache gate at
// the service level: close a session (publishing its decode products)
// and a fresh session of the same program must run entirely warm.
func TestServiceWarmAttachZeroDecodes(t *testing.T) {
	_, addr := startService(t, nil)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if ev, err := c.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("cold continue: %v, %v", ev, err)
	}
	cold, err := c.SimStats()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Decodes == 0 {
		t.Fatal("cold session decoded nothing; the gate below would be vacuous")
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}

	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if ev, err := c.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("warm continue: %v, %v", ev, err)
	}
	warm, err := c.SimStats()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Decodes != 0 {
		t.Fatalf("warm session decoded %d instructions, want 0 (%+v)", warm.Decodes, warm)
	}
	st, err := c.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedHits < 1 {
		t.Fatalf("no shared-cache hit recorded: %+v", st)
	}
}

// TestServiceStatsPerSession: the health line's per-session request
// count is the bound session's alone, while the aggregate spans the
// pool.
func TestServiceStatsPerSession(t *testing.T) {
	_, addr := startService(t, nil)
	c1, conn1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := c1.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	c1.SetCaching(false)
	for i := 0; i < 10; i++ {
		if _, err := c1.FetchInt(amem.Data, machine.DataBase, 4); err != nil {
			t.Fatal(err)
		}
	}
	st1, err := c1.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if st1.SessionRequests < 10 {
		t.Fatalf("session 1 requests = %d, want >= 10", st1.SessionRequests)
	}
	if st2.SessionRequests >= st1.SessionRequests {
		t.Fatalf("idle session counts the busy one's requests: %d vs %d", st2.SessionRequests, st1.SessionRequests)
	}
	if st1.TotalRequests < st1.SessionRequests+st2.SessionRequests {
		t.Fatalf("aggregate %d below sum of sessions %d+%d", st1.TotalRequests, st1.SessionRequests, st2.SessionRequests)
	}
}

// TestServicePlainNubRefusesSessionKinds pins the single-target story
// on the wire: a nub's metrics carry its nub and sim groups but no
// service group, and the client API refuses session requests locally
// before sending.
func TestServicePlainNubRefusesSessionKinds(t *testing.T) {
	a := allArches[0]
	c, _, _, err := Launch(a, testProgram(t, a), nil, machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sessions() {
		t.Fatal("plain nub advertised sessions")
	}
	if _, err := c.OpenSession("mips"); err == nil {
		t.Fatal("OpenSession against plain nub did not refuse")
	}
	ms, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]bool{}
	for _, m := range ms {
		g, _, _ := strings.Cut(m.Name, ".")
		groups[g] = true
	}
	if !groups["nub"] || !groups["sim"] || groups["service"] {
		t.Fatalf("plain nub metrics have groups %v, want nub and sim only: %v", groups, ms)
	}
	// The connection stays healthy.
	if _, err := c.Continue(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceShutdownDrains is the goroutine-leak gate: spin up live
// sessions on idle connections, shut down, and the process must return
// to its pre-service goroutine count — no accept loop, no connection
// goroutines, nothing parked in a read.
func TestServiceShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewService()
	for _, a := range allArches {
		s.Register(a.Name(), a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)

	var conns []net.Conn
	for i := 0; i < 8; i++ {
		c, conn, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if _, err := c.OpenSession(allArches[i%len(allArches)].Name()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.StepInst(); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not drain idle connections")
	}
	for _, conn := range conns {
		conn.Close()
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceSessionIsolation runs two sessions of the same program and
// checks one's breakpoint plant never perturbs the other — the shared
// cache's per-session copy-on-write seam, exercised over the wire.
func TestServiceSessionIsolation(t *testing.T) {
	_, addr := startService(t, nil)
	// Warm the cache so both sessions below adopt the same entry.
	cw, connw, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if _, err := cw.Continue(); err != nil {
		t.Fatal(err)
	}
	if err := cw.CloseSession(); err != nil {
		t.Fatal(err)
	}
	connw.Close()

	c1, conn1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := c1.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	// Session 1 plants a breakpoint over its second instruction.
	a, _ := arch.Lookup("mips")
	if err := c1.PlantStore(machine.TextBase+4, a.BreakInstr()); err != nil {
		t.Fatal(err)
	}
	if ev, err := c1.Continue(); err != nil || ev.Code != arch.TrapBreakpoint {
		t.Fatalf("planter stop: %v, %v", ev, err)
	}
	// Session 2 runs clean and warm despite session 1's plant.
	if ev, err := c2.Continue(); err != nil || ev.Code != 3 {
		t.Fatalf("clean session stop: %v, %v", ev, err)
	}
	st, err := c2.SimStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Decodes != 0 {
		t.Fatalf("clean session decoded %d after peer plant, want 0", st.Decodes)
	}
}

// TestServiceShutdownIdempotent makes Shutdown safe to call repeatedly
// (the cleanup hook adds a third call after these two).
func TestServiceShutdownIdempotent(t *testing.T) {
	s, _ := startService(t, nil)
	s.Shutdown()
	s.Shutdown()
}

// goneAfterRequest is the service's end of a connection whose client
// gives up as soon as it has sent a request: the lobby welcome gets
// out, and every write after the service's first read fails.
type goneAfterRequest struct {
	net.Conn
	read bool
}

func (c *goneAfterRequest) Read(p []byte) (int, error) {
	c.read = true
	return c.Conn.Read(p)
}

func (c *goneAfterRequest) Write(p []byte) (int, error) {
	if c.read {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestServiceAbandonedOpenLeavesPool: an open whose announcement cannot
// be written leaves no session behind — nobody learned its id, so
// nothing could ever attach to it or close it.
func TestServiceAbandonedOpenLeavesPool(t *testing.T) {
	s := NewService()
	a := allArches[0]
	s.Register(a.Name(), a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	srv, cli := net.Pipe()
	defer cli.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(&goneAfterRequest{Conn: srv}) }()
	if w, err := ReadMsg(cli); err != nil || w.Kind != MWelcome {
		t.Fatalf("lobby welcome: %v %v", w, err)
	}
	if err := WriteMsg(cli, &Msg{Kind: MOpenSession, Data: []byte(a.Name())}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("Serve returned no error for an announcement it could not write")
	}
	if n := s.Sessions(); n != 0 {
		t.Fatalf("%d sessions live after an abandoned open, want 0", n)
	}
}
