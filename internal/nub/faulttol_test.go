package nub

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch/mips"
	"ldb/internal/machine"
)

// --- satellite regressions -------------------------------------------------

// TestListPlantedSorted plants breakpoints in descending address order
// and checks the wire reply comes back ascending and identical across
// calls — map iteration order must not leak onto the wire.
func TestListPlantedSorted(t *testing.T) {
	a := mips.Little
	c, _, _, err := Launch(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	trap := []byte{1, 2, 3, 4}
	addrs := []uint32{machine.TextBase + 24, machine.TextBase + 16, machine.TextBase + 8, machine.TextBase}
	for _, addr := range addrs {
		if err := c.PlantStore(addr, trap); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.ListPlanted()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(addrs) {
		t.Fatalf("listed %d records, want %d", len(first), len(addrs))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Addr >= first[i].Addr {
			t.Fatalf("records not ascending: %#x before %#x", first[i-1].Addr, first[i].Addr)
		}
	}
	second, err := c.ListPlanted()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two listings differ:\n%v\n%v", first, second)
	}
}

// TestIntSizeBounds: the machine's word is 32 bits, so an 8-byte
// integer store would silently drop the high half if the nub accepted
// it. Both directions must error, and a rejected store must not touch
// memory.
func TestIntSizeBounds(t *testing.T) {
	a := mips.Little
	c, _, p, err := Launch(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StoreInt(amem.Data, machine.DataBase, 4, 0x11223344); err != nil {
		t.Fatal(err)
	}
	err = c.StoreInt(amem.Data, machine.DataBase, 8, 0xdeadbeefcafef00d)
	if err == nil || !strings.Contains(err.Error(), "size 8") {
		t.Fatalf("8-byte store: want size error, got %v", err)
	}
	v, f := p.Load(machine.DataBase, 4)
	if f != nil || v != 0x11223344 {
		t.Fatalf("memory after rejected store = %#x, %v; want original value intact", v, f)
	}
	if _, err := c.FetchInt(amem.Data, machine.DataBase, 8); err == nil || !strings.Contains(err.Error(), "size 8") {
		t.Fatalf("8-byte fetch: want size error, got %v", err)
	}
}

// TestCacheRangesAtAddressSpaceTop: a cached range abutting 0xFFFFFFFF
// ends at 1<<32, which used to wrap to 0 in uint32 arithmetic and turn
// every comparison against it inside out.
func TestCacheRangesAtAddressSpaceTop(t *testing.T) {
	c := newMemCache()
	top := uint32(0xFFFFFFF0)
	c.insert(amem.Data, top, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})

	if b, ok := c.lookup(amem.Data, 0xFFFFFFFC, 4); !ok || b[0] != 12 {
		t.Fatalf("lookup of last word: ok=%v b=%v", ok, b)
	}
	if _, ok := c.lookup(amem.Data, 0xFFFFFFFC, 8); ok {
		t.Fatal("lookup past the top of the address space succeeded")
	}

	// A patch fully inside the range must update in place.
	c.patch(amem.Data, 0xFFFFFFFC, []byte{0xaa, 0xbb, 0xcc, 0xdd})
	if b, ok := c.lookup(amem.Data, 0xFFFFFFFC, 4); !ok || b[0] != 0xaa {
		t.Fatalf("patch at the top: ok=%v b=%v", ok, b)
	}

	// Adjacent insert below must coalesce, not be treated as disjoint.
	c.insert(amem.Data, top-4, []byte{9, 9, 9, 9})
	if b, ok := c.lookup(amem.Data, top-4, 8); !ok || b[4] != 0 {
		t.Fatalf("merge across %#x: ok=%v b=%v", top, ok, b)
	}

	// Invalidation overlapping the top range must evict it.
	c.invalidate(amem.Data, 0xFFFFFFFE, 2)
	if _, ok := c.lookup(amem.Data, top, 4); ok {
		t.Fatal("range survived an overlapping invalidation at the top")
	}
}

// TestQuirkRangeAtAddressSpaceTop: a context area near 0xFFFFFFFF makes
// the quirk-range bounds exceed 32 bits; uint32 sums would wrap and
// misclassify float accesses on both sides of the boundary.
func TestQuirkRangeAtAddressSpaceTop(t *testing.T) {
	a := mips.Big
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	n := New(p)
	n.ctxAddr = 0xFFFFFF00
	lo, hi, ok := n.quirkRange()
	if !ok {
		t.Fatal("mipsbe context has no quirk range")
	}
	if lo < uint64(n.ctxAddr) || hi <= lo {
		t.Fatalf("quirk range wrapped: lo=%#x hi=%#x", lo, hi)
	}
	l := a.Context()
	wantHi := uint64(n.ctxAddr) + uint64(l.FRegOffs[len(l.FRegOffs)-1]+l.FRegSize)
	if hi != wantHi {
		t.Fatalf("hi = %#x, want %#x", hi, wantHi)
	}
}

// TestConnectRejectsUnknownArch: a welcome naming an architecture the
// client has no layout for must fail the handshake, not leave a client
// with a nil byte order behind.
func TestConnectRejectsUnknownArch(t *testing.T) {
	cl, srv := net.Pipe()
	go func() {
		WriteMsg(srv, &Msg{Kind: MWelcome, Addr: 0x1000, Size: 64, Data: []byte("z80")})
		WriteMsg(srv, &Msg{Kind: MEvent})
		srv.Close()
	}()
	_, err := Connect(cl)
	if err == nil || !strings.Contains(err.Error(), `unknown architecture "z80"`) {
		t.Fatalf("Connect = %v, want unknown-architecture error", err)
	}
}

// --- deadlines -------------------------------------------------------------

// deadNub is a server that completes the handshake and then never
// answers another request — the shape of a hung or wedged nub.
func deadNub(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				WriteMsg(conn, &Msg{Kind: MWelcome, Addr: 0x1000, Size: 64, Data: []byte("mips")})
				WriteMsg(conn, &Msg{Kind: MEvent, Addr: 0x1000})
				io.Copy(io.Discard, conn) // swallow requests forever
			}(conn)
		}
	}()
	return l.Addr().String(), func() { l.Close() }
}

// TestDeadNubDeadline: every client operation against a wedged nub must
// error within the configured deadline — never hang.
func TestDeadNubDeadline(t *testing.T) {
	addr, stop := deadNub(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := Connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 150 * time.Millisecond
	c.SetTimeout(timeout)
	c.SetRetries(1)

	ops := []struct {
		name string
		run  func() error
	}{
		{"FetchInt", func() error { _, err := c.FetchInt(amem.Data, 0x1000, 4); return err }},
		{"StoreInt", func() error { return c.StoreInt(amem.Data, 0x1000, 4, 1) }},
		{"FetchBytes", func() error { _, err := c.FetchBytes(amem.Data, 0x1000, 8); return err }},
		{"ListPlanted", func() error { _, err := c.ListPlanted(); return err }},
		{"Continue", func() error { _, err := c.Continue(); return err }},
	}
	for _, op := range ops {
		start := time.Now()
		err := op.run()
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s against a dead nub succeeded", op.name)
		}
		if !IsConnLost(err) {
			t.Fatalf("%s: error %v does not wrap ErrConnLost", op.name, err)
		}
		// Generous bound: one deadline plus reconnect overhead, far
		// below a hang.
		if elapsed > 10*timeout {
			t.Fatalf("%s took %v with a %v deadline", op.name, elapsed, timeout)
		}
	}
	if n := c.Stats().Timeouts; n < 1 {
		t.Fatalf("Timeouts = %d, want >= 1", n)
	}
}

// noDeadlineConn hides net.Conn's SetDeadline so the client must fall
// back to its watchdog timer.
type noDeadlineConn struct {
	conn net.Conn
}

func (c *noDeadlineConn) Read(p []byte) (int, error)  { return c.conn.Read(p) }
func (c *noDeadlineConn) Write(p []byte) (int, error) { return c.conn.Write(p) }
func (c *noDeadlineConn) Close() error                { return c.conn.Close() }

// TestWatchdogDeadline: connections without SetDeadline still get a
// deadline, enforced by severing the connection from a timer.
func TestWatchdogDeadline(t *testing.T) {
	addr, stop := deadNub(t)
	defer stop()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(&noDeadlineConn{conn: raw})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 150 * time.Millisecond
	c.SetTimeout(timeout)
	c.SetRetries(1)
	start := time.Now()
	_, err = c.FetchInt(amem.Data, 0x1000, 4)
	elapsed := time.Since(start)
	if err == nil || !IsConnLost(err) {
		t.Fatalf("fetch = %v, want connection-lost error", err)
	}
	if elapsed > 10*timeout {
		t.Fatalf("watchdog took %v with a %v deadline", elapsed, timeout)
	}
	if n := c.Stats().Timeouts; n < 1 {
		t.Fatalf("Timeouts = %d, want >= 1", n)
	}
}

// --- reconnection ----------------------------------------------------------

// liveNub serves a real target over TCP, restartable on the same
// address.
func liveNub(t *testing.T) (n *Nub, addr string, stop func()) {
	t.Helper()
	a := mips.Little
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	n = New(p)
	n.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.ServeListener(l)
	return n, l.Addr().String(), func() { l.Close() }
}

// TestTransparentReconnect: killing the connection under an idle client
// must be invisible — the next fetch redials, re-attaches, resyncs the
// planted breakpoints, and replays.
func TestTransparentReconnect(t *testing.T) {
	_, addr, stop := liveNub(t)
	defer stop()
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Caching off: every fetch must hit the wire, or the cache would
	// hide the dead connection from the test.
	c.SetCaching(false)
	bpAddr := uint32(machine.TextBase + 8)
	if err := c.PlantStore(bpAddr, []byte{0, 0, 0, 0xd}); err != nil {
		t.Fatal(err)
	}
	before, err := c.FetchInt(amem.Data, machine.DataBase, 4)
	if err != nil {
		t.Fatal(err)
	}

	conn.Close() // the wire dies under an idle client

	after, err := c.FetchInt(amem.Data, machine.DataBase+4, 4)
	if err != nil {
		t.Fatalf("fetch across a dead connection: %v", err)
	}
	_ = before
	_ = after
	s := c.Stats()
	if s.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", s.Reconnects)
	}
	if s.Replays < 1 {
		t.Fatalf("Replays = %d, want >= 1", s.Replays)
	}
	recs := c.ResyncedPlanted()
	found := false
	for _, r := range recs {
		if r.Addr == bpAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("resynced planted list %v does not contain %#x", recs, bpAddr)
	}
}

// TestReconnectGivesUp: with the listener gone, the reconnect cycle
// must fail within its bounded retries, not spin forever.
func TestReconnectGivesUp(t *testing.T) {
	_, addr, stop := liveNub(t)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCaching(false)
	if _, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil {
		t.Fatal(err)
	}
	stop() // no one is listening anymore
	conn.Close()
	c.SetRetries(2)
	start := time.Now()
	_, err = c.FetchInt(amem.Data, machine.DataBase+8, 4)
	elapsed := time.Since(start)
	if err == nil || !IsConnLost(err) {
		t.Fatalf("fetch = %v, want connection-lost error", err)
	}
	if !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("error %v does not report giving up", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("giving up took %v", elapsed)
	}
	if n := c.Stats().ReconnectFails; n != 1 {
		t.Fatalf("ReconnectFails = %d, want 1", n)
	}
}

// TestReconnectOutlastsListenerRestart: the nub's listener goes away
// and comes back on the same address while the client is mid-retry;
// the backoff loop must ride it out.
func TestReconnectOutlastsListenerRestart(t *testing.T) {
	n, addr, stop := liveNub(t)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCaching(false)
	if _, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil {
		t.Fatal(err)
	}
	stop()
	conn.Close()
	c.SetRetries(10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("re-listen on %s: %v", addr, err)
			return
		}
		go n.ServeListener(l)
	}()
	if _, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil {
		t.Fatalf("fetch across a listener restart: %v", err)
	}
	wg.Wait()
	if s := c.Stats(); s.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", s.Reconnects)
	}
}

// TestWelcomeMismatchRejected: redialing must not silently attach to a
// different target — the reconnect aborts on the first welcome that
// does not match the session's identity.
func TestWelcomeMismatchRejected(t *testing.T) {
	_, addrA, stopA := liveNub(t)
	defer stopA()

	// A second, different target on its own address.
	a := mips.Big
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	nB := New(p)
	nB.Start()
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lB.Close()
	go nB.ServeListener(lB)

	c, conn, err := Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the redial: it now lands on the wrong nub.
	c.SetRedial(func() (io.ReadWriter, error) { return net.Dial("tcp", lB.Addr().String()) })
	conn.Close()
	_, err = c.FetchInt(amem.Data, machine.DataBase, 4)
	if err == nil || !errors.Is(err, ErrWelcomeMismatch) {
		t.Fatalf("fetch = %v, want welcome-mismatch error", err)
	}

	// A client bound to a service session whose redial lands on a
	// single-target nub meets a welcome that is not a lobby.
	_, addrS := startService(t, nil)
	c, conn, err = Dial(addrS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	c.SetRedial(func() (io.ReadWriter, error) { return net.Dial("tcp", lB.Addr().String()) })
	conn.Close()
	_, err = c.FetchInt(amem.Data, machine.DataBase, 4)
	if err == nil || !errors.Is(err, ErrWelcomeMismatch) {
		t.Fatalf("session fetch = %v, want welcome-mismatch error", err)
	}
}

// storeDropRW delivers messages until it sees an MStoreInt header go
// out, then fails the next read — the precise window where the nub
// executed a store whose reply the debugger never saw.
type storeDropRW struct {
	conn net.Conn
	mu   sync.Mutex
	arm  bool
	dead bool
}

func (s *storeDropRW) Write(p []byte) (int, error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return 0, errors.New("storeDropRW: dead")
	}
	if len(p) > 0 && MsgKind(p[0]) == MStoreInt {
		s.arm = true
	}
	s.mu.Unlock()
	return s.conn.Write(p)
}

func (s *storeDropRW) Read(p []byte) (int, error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return 0, errors.New("storeDropRW: dead")
	}
	if s.arm {
		s.dead = true
		s.mu.Unlock()
		s.conn.Close()
		return 0, errors.New("storeDropRW: injected loss after store delivery")
	}
	s.mu.Unlock()
	return s.conn.Read(p)
}

func (s *storeDropRW) Close() error { return s.conn.Close() }

// TestDeliveredStoreIsNotReplayed: a store whose reply was lost may
// have executed; replaying it could double-apply. The client must
// reconnect but surface the error — and the store must indeed have
// reached memory exactly once.
func TestDeliveredStoreIsNotReplayed(t *testing.T) {
	_, addr, stop := liveNub(t)
	defer stop()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(&storeDropRW{conn: raw})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRedial(func() (io.ReadWriter, error) { return net.Dial("tcp", addr) })
	c.SetBatching(false)

	err = c.StoreInt(amem.Data, machine.DataBase+16, 4, 0xfeedface)
	if err == nil {
		t.Fatal("store across the drop window succeeded; it must surface the ambiguity")
	}
	if !IsConnLost(err) || !strings.Contains(err.Error(), "not replayed") {
		t.Fatalf("store error = %v, want conn-lost error reporting the request was not replayed", err)
	}
	if s := c.Stats(); s.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", s.Reconnects)
	}
	// The nub did execute the store, exactly once; the reconnected
	// session reads it back.
	v, err := c.FetchInt(amem.Data, machine.DataBase+16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeedface {
		t.Fatalf("fetched %#x after the ambiguous store, want 0xfeedface", v)
	}
}
