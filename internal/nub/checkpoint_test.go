package nub

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/machine"
)

// ckTestNub builds a nub on the standard test program, run to its first
// stop, with a breakpoint planted and a sentinel stored — a session
// with every kind of state a checkpoint must carry.
func ckTestNub(t *testing.T) *Nub {
	t.Helper()
	a := allArches[0]
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()
	orig := make([]byte, 4)
	if err := p.ReadBytes(machine.TextBase+4, orig); err != nil {
		t.Fatal(err)
	}
	if rep, _, _ := parseMsg(n.safeHandle(&Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: machine.TextBase + 4, Size: 4, Data: orig}, nil)); rep.Kind != MOK {
		t.Fatalf("plant: %s", rep.Data)
	}
	if rep, _, _ := parseMsg(n.safeHandle(&Msg{Kind: MStoreInt, Space: byte(amem.Data), Addr: machine.DataBase + 8, Size: 4, Val: 0xabcd}, nil)); rep.Kind != MOK {
		t.Fatalf("store: %s", rep.Data)
	}
	return n
}

func TestCheckpointCodecRoundtrip(t *testing.T) {
	n := ckTestNub(t)
	ck := n.Checkpoint()
	ck.Events = []machine.Event{
		{Kind: machine.EvStoreInt, Space: byte(amem.Data), Addr: machine.DataBase + 12, Size: 4, Val: 7},
		{Kind: machine.EvStoreBytes, Space: byte(amem.Data), Addr: machine.DataBase + 16, Size: 2, Data: []byte{1, 2}},
		{Kind: machine.EvContinue},
	}
	blob := encodeCheckpoint("mips", ck, n.pending)

	sc, err := decodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if sc.program != "mips" || sc.ck.Arch != ck.Arch || sc.ck.Steps != ck.Steps || sc.ck.PC != ck.PC {
		t.Fatalf("identity: %q %q %d %#x", sc.program, sc.ck.Arch, sc.ck.Steps, sc.ck.PC)
	}
	if len(sc.ck.Planted) != 1 {
		t.Fatalf("planted: %v", sc.ck.Planted)
	}
	if len(sc.ck.Events) != 3 || sc.ck.Events[2].Kind != machine.EvContinue || !bytes.Equal(sc.ck.Events[1].Data, []byte{1, 2}) {
		t.Fatalf("events: %+v", sc.ck.Events)
	}
	if sc.pending == nil || sc.pending.Kind != n.pending.Kind {
		t.Fatalf("pending: %+v, want kind %v", sc.pending, n.pending.Kind)
	}

	// The decoded checkpoint must rebuild a byte-identical process.
	q, err := machine.FromCheckpoint(sc.ck)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range n.P.Segs {
		got := make([]byte, len(s.Data))
		if err := q.ReadBytes(s.Base, got); err != nil {
			t.Fatalf("segment %q: %v", s.Name, err)
		}
		if !bytes.Equal(got, s.Data) {
			t.Fatalf("segment %d (%q) differs after codec roundtrip", i, s.Name)
		}
	}
	if q.PC() != n.P.PC() || q.Steps != n.P.Steps {
		t.Fatalf("pc/steps: %#x/%d, want %#x/%d", q.PC(), q.Steps, n.P.PC(), n.P.Steps)
	}

	// Deterministic encoding: encoding the same checkpoint twice yields
	// the same bytes (planted maps are sorted, not ranged).
	if !bytes.Equal(blob, encodeCheckpoint("mips", ck, n.pending)) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestCheckpointDecodeHostile pins that malformed blobs error cleanly:
// every truncation of a valid blob, a corrupted magic, lying counts.
// The fuzzer explores far beyond this; these are the deterministic
// regressions.
func TestCheckpointDecodeHostile(t *testing.T) {
	n := ckTestNub(t)
	blob := encodeCheckpoint("mips", n.Checkpoint(), n.pending)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decodeCheckpoint(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := decodeCheckpoint(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := decodeCheckpoint(append(append([]byte(nil), blob...), 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A lying register count claims more than the cap.
	lie := append([]byte(nil), blob...)
	off := len(ckMagic) + 4 + len("mips") + 4 + len(n.P.A.Name()) + 8 + 4 + 4 + 1 + 4
	lie[off], lie[off+1], lie[off+2], lie[off+3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := decodeCheckpoint(lie); err == nil {
		t.Fatal("oversized register count accepted")
	}
}

// TestSessionPassivateResurrect drives the crash-only eviction cycle:
// mutate a session, force it out of the pool with PassivateIdle, then
// attach to its id from a fresh connection — the resurrected session
// must carry the mutation, the planted breakpoint, the latched event,
// and still run to the same trap as an undisturbed session.
func TestSessionPassivateResurrect(t *testing.T) {
	s, addr := startService(t, nil)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	id := c.SessionID()
	if err := c.StoreInt(amem.Data, machine.DataBase+8, 4, 0xabcd); err != nil {
		t.Fatal(err)
	}
	orig, err := c.FetchBytes(amem.Code, machine.TextBase+4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlantStore(machine.TextBase+4, orig); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The serve goroutine returns the binding token after the detach
	// reply; wait for it, then force the eviction.
	deadline := time.Now().Add(5 * time.Second)
	for s.PassivateIdle(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never came idle for passivation")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("pool holds %d sessions after passivation", got)
	}

	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ev, err := c2.AttachSession(id)
	if err != nil {
		t.Fatalf("attach to passivated session: %v", err)
	}
	if ev.Exited || ev.Sig != arch.SigTrap || ev.Code != arch.TrapPause {
		t.Fatalf("resurrected event = %v, want the latched pause", ev)
	}
	if v, err := c2.FetchInt(amem.Data, machine.DataBase+8, 4); err != nil || v != 0xabcd {
		t.Fatalf("sentinel after resurrection = %#x, %v", v, err)
	}
	pl, err := c2.ListPlanted()
	if err != nil || len(pl) != 1 || pl[0].Addr != machine.TextBase+4 {
		t.Fatalf("planted after resurrection = %v, %v", pl, err)
	}
	if ev, err := c2.Continue(); err != nil || ev.Sig != arch.SigTrap || ev.Code != 3 {
		t.Fatalf("resurrected continue: %v, %v", ev, err)
	}
	if v, err := c2.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 42 {
		t.Fatalf("resurrected run stored %d, %v", v, err)
	}
	st, err := c2.ServiceStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Passivated != 1 || st.Resurrected != 1 {
		t.Fatalf("lifecycle stats = %+v", st)
	}
}

// TestRollbackOnCrashedRequest injects a crash into a store request —
// with target state corrupted first, as a real mid-request panic could
// leave it — and checks the client's transparent retry lands on an
// uncorrupted session: the rollback must undo everything the crashed
// attempt touched.
func TestRollbackOnCrashedRequest(t *testing.T) {
	var fired atomic.Bool
	s, addr := startService(t, func(s *Service) {
		s.FaultHook = func(id uint64, n *Nub, req *Msg) bool {
			if req.Kind == MStoreInt && fired.CompareAndSwap(false, true) {
				// Scribble over data and text, as a crashed handler might.
				_ = n.P.WriteBytes(machine.DataBase, []byte{0xde, 0xad, 0xbe, 0xef})
				_ = n.P.WriteBytes(machine.TextBase, []byte{0, 0, 0, 0})
				return true
			}
			return false
		}
	})
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreInt(amem.Data, machine.DataBase+4, 4, 99); err != nil {
		t.Fatalf("store through injected crash: %v", err)
	}
	if !fired.Load() {
		t.Fatal("fault hook never fired")
	}
	if v, err := c.FetchInt(amem.Data, machine.DataBase+4, 4); err != nil || v != 99 {
		t.Fatalf("retried store = %d, %v", v, err)
	}
	if v, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 0 {
		t.Fatalf("corruption survived rollback: %d, %v", v, err)
	}
	// The scribbled text was rolled back too: the program still runs to
	// its trap and stores 42.
	if ev, err := c.Continue(); err != nil || ev.Sig != arch.SigTrap || ev.Code != 3 {
		t.Fatalf("continue after rollback: %v, %v", ev, err)
	}
	if v, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 42 {
		t.Fatalf("post-rollback run stored %d, %v", v, err)
	}
	if st, err := c.ServiceStats(); err != nil || st.Rollbacks != 1 {
		t.Fatalf("rollbacks = %+v, %v", st, err)
	}
	if got := s.rollbacks.Load(); got != 1 {
		t.Fatalf("service rollbacks = %d", got)
	}
	if c.Stats().Replays == 0 {
		t.Fatal("client never counted the transparent retry")
	}
}

// TestRollbackOnCrashedResume: the crash-only path must cover resumes
// too — a continue that crashes rolls back and the retried continue
// re-runs the exact same execution.
func TestRollbackOnCrashedResume(t *testing.T) {
	var fired atomic.Bool
	_, addr := startService(t, func(s *Service) {
		s.FaultHook = func(id uint64, n *Nub, req *Msg) bool {
			return req.Kind == MContinue && fired.CompareAndSwap(false, true)
		}
	})
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	ev, err := c.Continue()
	if err != nil || ev.Sig != arch.SigTrap || ev.Code != 3 {
		t.Fatalf("continue through injected crash: %v, %v", ev, err)
	}
	if v, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 42 {
		t.Fatalf("fetch = %d, %v", v, err)
	}
	if !fired.Load() {
		t.Fatal("fault hook never fired")
	}
}

// TestCloseSessionIdempotent: closing is "make the session not exist",
// so closing sessions that already do not exist — never opened, closed
// twice, or passivated — succeeds cleanly, and a close of a passivated
// session drops its checkpoint for good.
func TestCloseSessionIdempotent(t *testing.T) {
	s, addr := startService(t, nil)
	c, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown session, from the lobby.
	if _, err := c.roundTrip(&Msg{Kind: MCloseSession, Val: 9999}); err != nil {
		t.Fatalf("close of unknown session: %v", err)
	}
	// Double close.
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	id := c.SessionID()
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(&Msg{Kind: MCloseSession, Val: id}); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Close of a passivated session drops the stored checkpoint.
	if _, err := c.OpenSession("mips"); err != nil {
		t.Fatal(err)
	}
	id = c.SessionID()
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.PassivateIdle(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never came idle")
		}
		time.Sleep(time.Millisecond)
	}
	c2, conn2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := c2.roundTrip(&Msg{Kind: MCloseSession, Val: id}); err != nil {
		t.Fatalf("close of passivated session: %v", err)
	}
	if _, err := c2.AttachSession(id); err == nil || !strings.Contains(err.Error(), "no such session") {
		t.Fatalf("closed session resurrected: %v", err)
	}
}
