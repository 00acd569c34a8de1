package nub

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/arch/mips"
	"ldb/internal/machine"
)

// rawServe starts a nub for a paused mips target and hands back a raw
// wire into its Serve loop, with the welcome and first event already
// consumed — the vantage point of a peer that speaks frames directly.
func rawServe(t *testing.T, timeout time.Duration) (*Nub, net.Conn, func()) {
	t.Helper()
	a := mips.Little
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	n := New(p)
	n.ReadTimeout = timeout
	n.Start()
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		_ = n.Serve(srv)
		_ = srv.Close()
		close(done)
	}()
	if m, err := ReadMsg(cli); err != nil || m.Kind != MWelcome {
		t.Fatalf("welcome = %v %v", m, err)
	}
	if m, err := ReadMsg(cli); err != nil || m.Kind != MEvent {
		t.Fatalf("first event = %v %v", m, err)
	}
	return n, cli, func() {
		_ = cli.Close()
		<-done
	}
}

// roundtripRaw writes one request frame and reads one reply frame.
func roundtripRaw(t *testing.T, conn net.Conn, req *Msg) *Msg {
	t.Helper()
	if err := WriteMsg(conn, req); err != nil {
		t.Fatalf("write %v: %v", req.Kind, err)
	}
	rep, err := ReadMsg(conn)
	if err != nil {
		t.Fatalf("read reply to %v: %v", req.Kind, err)
	}
	return rep
}

// serverMetric asks the serving nub for its counters with a raw
// MMetrics round trip and returns the named one; an absent name reads
// as zero.
func serverMetric(t *testing.T, conn net.Conn, name string) int64 {
	t.Helper()
	rep := roundtripRaw(t, conn, &Msg{Kind: MMetrics})
	if rep.Kind != MMetricsReply {
		t.Fatalf("metrics reply = %v %q", rep.Kind, rep.Data)
	}
	ms, err := decodeMetrics(rep.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// TestUnknownRequestKindsRejected: unassigned kind bytes, reply kinds
// arriving as requests, and out-of-range spaces must each draw an error
// reply, count as malformed frames, and leave the connection usable.
func TestUnknownRequestKindsRejected(t *testing.T) {
	n, cli, stop := rawServe(t, -1)
	defer stop()
	bad := []*Msg{
		{Kind: MsgKind(200)},   // unassigned kind byte
		{Kind: MWelcome},       // a reply kind as a request
		{Kind: MValue, Val: 7}, // another reply kind
		{Kind: MFetchInt, Space: 'z', Addr: 0x1000, Size: 4}, // bogus space
	}
	for _, m := range bad {
		rep := roundtripRaw(t, cli, m)
		if rep.Kind != MError {
			t.Fatalf("%v drew %v, want MError", m.Kind, rep.Kind)
		}
	}
	// The connection survived: a valid fetch still works.
	rep := roundtripRaw(t, cli, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4})
	if rep.Kind != MValue {
		t.Fatalf("fetch after rejects = %v", rep.Kind)
	}
	if got := n.Stats.MalformedFrames.Load(); got != int64(len(bad)) {
		t.Fatalf("MalformedFrames = %d, want %d", got, len(bad))
	}
	// And the counters travel over the wire.
	if malformed := serverMetric(t, cli, "nub.MalformedFrames"); malformed != int64(len(bad)) {
		t.Fatalf("wire MalformedFrames = %d, want %d", malformed, len(bad))
	}
}

// TestHandlerPanicContained: a corrupted segment list makes a handler
// panic; the panic must become an MError reply and a counter, and the
// target must stay debuggable on the same connection (§4.2: the nub
// must not take the target down with it).
func TestHandlerPanicContained(t *testing.T) {
	n, cli, stop := rawServe(t, -1)
	defer stop()
	// Corrupt the process: a nil segment makes the MFetchLine scan
	// dereference nil.
	n.P.Segs = append(n.P.Segs, nil)
	rep := roundtripRaw(t, cli, &Msg{Kind: MFetchLine, Space: byte(amem.Data), Addr: 0x10, Size: 16})
	if rep.Kind != MError || !strings.Contains(string(rep.Data), "recovered from panic") {
		t.Fatalf("reply = %v %q", rep.Kind, rep.Data)
	}
	if n.Stats.RecoveredPanics.Load() != 1 {
		t.Fatalf("RecoveredPanics = %d", n.Stats.RecoveredPanics.Load())
	}
	// Heal the segment list: everything still works.
	n.P.Segs = n.P.Segs[:len(n.P.Segs)-1]
	rep = roundtripRaw(t, cli, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4})
	if rep.Kind != MValue {
		t.Fatalf("fetch after panic = %v", rep.Kind)
	}
}

// TestBatchMemberPanicContained: a panicking member inside an MBatch
// envelope draws that member an error reply while the other members
// complete normally.
func TestBatchMemberPanicContained(t *testing.T) {
	n, cli, stop := rawServe(t, -1)
	defer stop()
	n.P.Segs = append(n.P.Segs, nil)
	env, err := EncodeBatch(nil, MBatch, []Msg{
		{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4},
		{Kind: MFetchLine, Space: byte(amem.Data), Addr: 0x10, Size: 16}, // panics
		{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase + 4, Size: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := roundtripRaw(t, cli, &env)
	if rep.Kind != MBatchReply {
		t.Fatalf("reply = %v %q", rep.Kind, rep.Data)
	}
	reps, err := DecodeBatch(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("members = %d", len(reps))
	}
	if reps[0].Kind != MValue || reps[2].Kind != MValue {
		t.Fatalf("healthy members = %v, %v", reps[0].Kind, reps[2].Kind)
	}
	if reps[1].Kind != MError || !strings.Contains(string(reps[1].Data), "recovered from panic") {
		t.Fatalf("panicking member = %v %q", reps[1].Kind, reps[1].Data)
	}
	if n.Stats.RecoveredPanics.Load() != 1 {
		t.Fatalf("RecoveredPanics = %d", n.Stats.RecoveredPanics.Load())
	}
}

// TestContextFaultLatched: when the target's context area is unmapped —
// the nub's data lives in user space where the program can destroy it —
// a resume must latch a SIGSEGV at the context address instead of
// panicking the server.
func TestContextFaultLatched(t *testing.T) {
	n, cli, stop := rawServe(t, -1)
	defer stop()
	// Unmap the nub's context segment.
	for i, s := range n.P.Segs {
		if s.Name == "nub" {
			n.P.Segs = append(n.P.Segs[:i], n.P.Segs[i+1:]...)
			break
		}
	}
	rep := roundtripRaw(t, cli, &Msg{Kind: MContinue})
	if rep.Kind != MEvent || rep.Sig != int32(arch.SigSegv) || rep.Addr != n.CtxAddr() {
		t.Fatalf("reply = %v sig=%d addr=%#x", rep.Kind, rep.Sig, rep.Addr)
	}
	if n.Stats.CtxFaults.Load() == 0 {
		t.Fatal("CtxFaults not counted")
	}
	// The serving loop survived: requests still work.
	rep = roundtripRaw(t, cli, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4})
	if rep.Kind != MValue {
		t.Fatalf("fetch after ctx fault = %v", rep.Kind)
	}
}

// TestOversizeFrameRepliesThenCloses: a frame declaring a payload past
// the cap cannot be drained (the length is attacker-chosen), so the nub
// must reply with an error and close the connection — and never
// allocate the declared size.
func TestOversizeFrameRepliesThenCloses(t *testing.T) {
	n, cli, stop := rawServe(t, -1)
	defer stop()
	var b bytes.Buffer
	if err := WriteMsg(&b, &Msg{Kind: MFetchBytes, Space: byte(amem.Data)}); err != nil {
		t.Fatal(err)
	}
	frame := b.Bytes()
	// Patch the length word (the 4 bytes after the 27-byte header).
	frame[27], frame[28], frame[29], frame[30] = 0xff, 0xff, 0xff, 0x7f
	if _, err := cli.Write(frame); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadMsg(cli)
	if err != nil || rep.Kind != MError {
		t.Fatalf("oversize reply = %v %v", rep, err)
	}
	if _, err := ReadMsg(cli); err == nil {
		t.Fatal("connection stayed open after an oversize frame")
	}
	if n.Stats.OversizeRejects.Load() != 1 {
		t.Fatalf("OversizeRejects = %d", n.Stats.OversizeRejects.Load())
	}
}

// TestSlowlorisDropped: a peer that opens a frame and then trickles
// nothing must be cut off by the server read deadline rather than
// pinning the nub forever. The idle wait BEFORE a frame stays
// unbounded — only a started frame is on the clock.
func TestSlowlorisDropped(t *testing.T) {
	n, cli, stop := rawServe(t, 100*time.Millisecond)
	defer stop()
	// Idle longer than the deadline: the connection must survive —
	// waiting at the prompt is not an attack.
	time.Sleep(250 * time.Millisecond)
	rep := roundtripRaw(t, cli, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4})
	if rep.Kind != MValue {
		t.Fatalf("fetch after idling = %v", rep.Kind)
	}
	// Now start a frame and stall.
	if _, err := cli.Write([]byte{byte(MFetchInt)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	_ = cli.SetReadDeadline(deadline)
	if _, err := ReadMsg(cli); err == nil {
		t.Fatal("server kept a stalled frame alive")
	}
	if time.Now().After(deadline) {
		t.Fatal("server did not drop the stalled frame within 5s")
	}
	if n.Stats.SlowReads.Load() != 1 {
		t.Fatalf("SlowReads = %d", n.Stats.SlowReads.Load())
	}
}

// TestStepInst: the machine-level single step retires exactly one
// instruction and reports SIGTRAP with code TrapStep; stepping into the
// exit syscall reports the exit.
func TestStepInst(t *testing.T) {
	a := mips.Little
	as := mips.NewAsm(a)
	as.Break(arch.TrapPause)
	as.LI(mips.V0, arch.SysExit)
	as.LI(mips.A0, 3)
	as.Syscall()
	code, _, err := as.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c, _, p, err := Launch(a, code, nil, machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	pc := p.PC()
	for i := 0; i < 2; i++ {
		ev, err := c.StepInst()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Exited || ev.Sig != arch.SigTrap || ev.Code != arch.TrapStep {
			t.Fatalf("step %d event = %v", i, ev)
		}
		if ev.PC == pc {
			t.Fatalf("step %d did not advance from %#x", i, pc)
		}
		pc = ev.PC
	}
	ev, err := c.StepInst()
	if err != nil || !ev.Exited || ev.Status != 3 {
		t.Fatalf("final step = %v %v", ev, err)
	}
	// Stepping an exited target keeps reporting the exit.
	ev, err = c.StepInst()
	if err != nil || !ev.Exited {
		t.Fatalf("step after exit = %v %v", ev, err)
	}
}

// TestServeListenerClientChurn: debuggers connecting, working, and
// detaching in sequence must see one continuous target — memory writes
// and planted breakpoints survive the churn.
func TestServeListenerClientChurn(t *testing.T) {
	_, addr, stop := liveNub(t)
	defer stop()
	bpAddr := uint32(machine.TextBase + 8)

	c1, _, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.StoreInt(amem.Data, machine.DataBase, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := c1.PlantStore(bpAddr, []byte{0, 0, 0, 0xd}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Detach(); err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()

	c2, _, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetCaching(false)
	v, err := c2.FetchInt(amem.Data, machine.DataBase, 4)
	if err != nil || uint32(v) != 0xdeadbeef {
		t.Fatalf("value across churn = %#x %v", v, err)
	}
	recs, err := c2.ListPlanted()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Addr == bpAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("breakpoint at %#x lost across churn: %v", bpAddr, recs)
	}
}

// TestShutdownUnblocksAccept: Shutdown must wake a ServeListener parked
// in Accept and refuse further connections.
func TestShutdownUnblocksAccept(t *testing.T) {
	a := mips.Little
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		n.ServeListener(l)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let it park in Accept
	n.Shutdown()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not unblock Accept")
	}
	if _, err := net.Dial("tcp", l.Addr().String()); err == nil {
		t.Fatal("listener accepted a connection after Shutdown")
	}
}

// TestShutdownGraceful: a Shutdown issued while a debugger is connected
// drains that connection instead of letting the idle read pin the serve
// goroutine forever — requests already delivered finish with their
// replies, the idle connection closes, ServeListener exits without
// waiting for a detach — and target state is preserved (shutdown severs
// the endpoint, it does not kill the target).
func TestShutdownGraceful(t *testing.T) {
	a := mips.Little
	p := machine.New(a, testProgram(t, a), make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		n.ServeListener(l)
		close(done)
	}()
	c, _, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.SetCaching(false)
	c.SetRetries(1)
	// The live connection services requests up to the shutdown.
	if _, err := c.FetchInt(amem.Data, machine.DataBase, 4); err != nil {
		t.Fatalf("fetch before shutdown: %v", err)
	}
	n.Shutdown()
	// The connection is idle (the client sits at its prompt), so the
	// drain closes it: ServeListener exits without a detach.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("idle connection pinned ServeListener past Shutdown")
	}
	_ = c.Close()
	if n.P.State == machine.StateExited {
		t.Fatal("Shutdown killed the target")
	}
}
