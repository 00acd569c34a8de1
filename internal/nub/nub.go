package nub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/machine"
)

// NubDataBase is where the nub keeps its data structures — in user
// space, where a faulty program could destroy them (§4.2 discusses
// exactly this vulnerability).
const (
	NubDataBase = 0x0ffe0000
	nubDataSize = 4096
)

// DefaultServeTimeout is how long the serving nub waits for the rest of
// a frame once its first byte arrives. Nub.ReadTimeout overrides it.
const DefaultServeTimeout = 30 * time.Second

// Nub controls one target process and serves the debugger protocol.
// The guiding principle is to keep it as small as possible (§4.2);
// batching adds one envelope handler, not new concepts.
type Nub struct {
	P       *machine.Process
	ctxAddr uint32

	// Stats counts messages served; atomic because the nub runs in its
	// own goroutine while tests and debuggers read the counters.
	Stats Stats

	// ReadTimeout bounds how long the nub waits for the REST of a frame
	// once its first byte has arrived (the idle wait between requests is
	// unbounded — a debugger may sit at its prompt forever). A peer that
	// starts a frame and trickles it cannot hold the nub hostage. Zero
	// means DefaultServeTimeout; negative disables the deadline.
	ReadTimeout time.Duration

	mu      sync.Mutex //ldb:lock nub.mu 20
	pending *Msg       // event to (re)send when a connection arrives
	dead    bool

	// lnMu guards the listener fields separately from mu, which Serve
	// holds for the whole of a connection: Shutdown must be callable
	// while a request is being serviced.
	lnMu     sync.Mutex //ldb:lock nub.lnMu 41
	listener net.Listener
	closing  bool
	// serving is the connection Serve is currently blocked on, if any;
	// Shutdown expires its read deadline so an idle debugger connection
	// drains instead of pinning the serve goroutine.
	serving net.Conn
	// planted records breakpoint stores (§7.1's protocol enrichment):
	// address → the instruction bytes the trap overwrote, so the nub
	// can report them to a new debugger if the old one is lost.
	planted map[uint32][]byte
}

// New attaches a nub to a process, reserving the context area in the
// target's address space.
func New(p *machine.Process) *Nub {
	n := &Nub{P: p, ctxAddr: NubDataBase, planted: make(map[uint32][]byte)}
	for _, s := range p.Segs {
		if s.Name == "nub" && s.Base == NubDataBase {
			// A process rebuilt from a checkpoint already carries the
			// context area; mapping a second copy would shadow it.
			return n
		}
	}
	p.Segs = append(p.Segs, &machine.Segment{
		Name: "nub",
		Base: NubDataBase,
		Data: make([]byte, nubDataSize),
	})
	return n
}

// CtxAddr returns the target address of the context record.
func (n *Nub) CtxAddr() uint32 { return n.ctxAddr }

// Start runs the target to its first stop — normally the pause trap the
// startup code executes before calling main (§4.3) — and latches the
// event for the first connection.
func (n *Nub) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resumeAndLatch(n.runAndLatch)
}

// RunFree runs the target with pause traps ignored, as a program that
// is not (yet) being debugged: if it faults, the fault is latched so a
// debugger can connect afterward — the target need not be a child of
// the debugger (§4.2).
func (n *Nub) RunFree() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resumeAndLatch(func() {
		for {
			f := n.P.Run()
			if f.Kind == arch.FaultSignal && f.Sig == arch.SigTrap && f.Code == arch.TrapPause {
				n.P.SetPC(f.PC + f.Len)
				continue
			}
			n.latch(f)
			return
		}
	})
}

// runAndLatch resumes the target and latches the resulting event. It
// may panic on corrupted process state, so it must only run under the
// resumeAndLatch containment — recoverguard enforces this.
//
//ldb:contain
func (n *Nub) runAndLatch() {
	f := n.P.Run()
	if f.Kind == arch.FaultSignal && f.Sig == arch.SigTrap && f.Code == arch.TrapPause {
		// Step past our own pause trap so a plain continue works.
		n.P.SetPC(f.PC + f.Len)
	}
	n.latch(f)
}

// stepAndLatch retires exactly one instruction and latches the result.
// A step that completes without faulting reports SIGTRAP with code
// TrapStep — the convention MStepInst clients decode. A pause trap is
// stepped past, as in runAndLatch; like runAndLatch it must only run
// under the resumeAndLatch containment.
//
//ldb:contain
func (n *Nub) stepAndLatch() {
	f := n.P.StepOne()
	if f != nil && f.Kind == arch.FaultSignal && f.Sig == arch.SigTrap && f.Code == arch.TrapPause {
		n.P.SetPC(f.PC + f.Len)
		f = nil
	}
	if f == nil {
		f = &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigTrap, Code: arch.TrapStep, PC: n.P.PC()}
	}
	n.latch(f)
}

// resumeAndLatch runs resume — which advances the target and latches
// its next event — with panic containment: a simulator panic, reachable
// only through corrupted process state, latches an error reply rather
// than killing the serving goroutine and the target with it.
func (n *Nub) resumeAndLatch(resume func()) {
	defer func() {
		if r := recover(); r != nil {
			n.Stats.RecoveredPanics.Add(1)
			n.pending = &Msg{Kind: MError, Data: []byte(fmt.Sprintf("nub: recovered from panic: %v", r))}
		}
	}()
	resume()
}

func (n *Nub) latch(f *arch.Fault) {
	if f.Kind == arch.FaultHalt {
		n.pending = &Msg{Kind: MExited, Code: int32(n.P.ExitCode)}
		return
	}
	if err := n.saveContext(); err != nil {
		n.latchCtxFault(f.PC)
		return
	}
	n.pending = &Msg{
		Kind: MEvent,
		Sig:  int32(f.Sig),
		Code: int32(f.Code),
		Addr: n.ctxAddr,
		Val:  uint64(f.PC),
	}
}

// latchCtxFault latches an unusable context area as a target fault: the
// nub's data lives in user space where a faulty program can destroy it
// (§4.2), so destroying it is the target's bug, reported as a SIGSEGV
// at the context address — not a reason for the nub to crash.
func (n *Nub) latchCtxFault(pc uint32) {
	n.Stats.CtxFaults.Add(1)
	n.pending = &Msg{
		Kind: MEvent,
		Sig:  int32(arch.SigSegv),
		Addr: n.ctxAddr,
		Val:  uint64(pc),
	}
}

// saveContext writes the processor state into the context record in
// target memory, in the target's byte order, per the machine-dependent
// layout. On a big-endian MIPS the kernel's quirk applies: saved
// doubleword floating registers go least significant word first (§4.3
// footnote), and fetchFloat compensates. An unmapped context area is
// reported, not panicked over: the caller latches it as a target fault.
func (n *Nub) saveContext() error {
	p := n.P
	l := p.A.Context()
	order := p.A.Order()
	buf := make([]byte, l.Size)
	amem.WriteInt(order, buf[l.PCOff:l.PCOff+4], uint64(p.PC()))
	amem.WriteInt(order, buf[l.FlagOff:l.FlagOff+4], uint64(p.Flag()))
	for i, off := range l.RegOffs {
		if off == l.PCOff {
			continue // the VAX keeps the pc in the r15 slot
		}
		amem.WriteInt(order, buf[off:off+4], uint64(p.Reg(i)))
	}
	for i, off := range l.FRegOffs {
		img := buf[off : off+l.FRegSize]
		if l.FRegSize == 12 {
			amem.EncodeFloat(order, img, amem.Float80, p.FReg(i))
		} else {
			amem.EncodeFloat(order, img, amem.Float64, p.FReg(i))
			if l.FloatWordSwap {
				swapWords(img)
			}
		}
	}
	if err := p.WriteBytes(n.ctxAddr, buf); err != nil {
		return fmt.Errorf("nub: context area unmapped: %w", err)
	}
	return nil
}

// restoreContext reads the (possibly debugger-modified) context back
// into the processor before resuming (assignments to registers work by
// storing into the context through the alias memory). An unmapped
// context area is reported, not panicked over.
func (n *Nub) restoreContext() error {
	p := n.P
	l := p.A.Context()
	order := p.A.Order()
	buf := make([]byte, l.Size)
	if err := p.ReadBytes(n.ctxAddr, buf); err != nil {
		return fmt.Errorf("nub: context area unmapped: %w", err)
	}
	p.SetPC(uint32(amem.ReadInt(order, buf[l.PCOff:l.PCOff+4])))
	p.SetFlag(uint32(amem.ReadInt(order, buf[l.FlagOff:l.FlagOff+4])))
	for i, off := range l.RegOffs {
		if off == l.PCOff {
			continue
		}
		p.SetReg(i, uint32(amem.ReadInt(order, buf[off:off+4])))
	}
	for i, off := range l.FRegOffs {
		img := append([]byte(nil), buf[off:off+l.FRegSize]...)
		if l.FRegSize == 12 {
			p.SetFReg(i, amem.DecodeFloat(order, img, amem.Float80))
		} else {
			if l.FloatWordSwap {
				swapWords(img)
			}
			p.SetFReg(i, amem.DecodeFloat(order, img, amem.Float64))
		}
	}
	return nil
}

func swapWords(b []byte) {
	for i := 0; i < 4; i++ {
		b[i], b[i+4] = b[i+4], b[i]
	}
}

// quirkRange reports the context subrange holding saved floating
// registers that the MIPS quirk applies to. The bounds are uint64: a
// context area near the top of the address space would make the
// uint32 sums (and the callers' m.Addr+8 checks) wrap and misclassify
// accesses on both sides of the boundary.
func (n *Nub) quirkRange() (lo, hi uint64, ok bool) {
	l := n.P.A.Context()
	if !l.FloatWordSwap || len(l.FRegOffs) == 0 {
		return 0, 0, false
	}
	lo = uint64(n.ctxAddr) + uint64(l.FRegOffs[0])
	hi = uint64(n.ctxAddr) + uint64(l.FRegOffs[len(l.FRegOffs)-1]+l.FRegSize)
	return lo, hi, true
}

func validSpace(s byte) bool { return s == byte(amem.Code) || s == byte(amem.Data) }

// errMsg builds an MError reply.
func errMsg(format string, args ...any) *Msg {
	return &Msg{Kind: MError, Data: []byte(fmt.Sprintf(format, args...))}
}

// handlers dispatches validated requests to their servicing methods.
// It is indexed by kind byte, filled once at init, and read only from
// safeHandle, behind the recover and after checkRequest — properties
// the recoverguard and wireproto analyzers enforce. The control
// messages that own the connection (continue, step, kill, detach) are
// deliberately absent: they are cases in Serve's loop, because their
// replies interleave with resuming the target.
//
//ldb:dispatch-table
var handlers [256]func(*Nub, *Msg) *Msg

func init() {
	handlers[MHello] = (*Nub).handleHello
	handlers[MBatch] = (*Nub).handleBatch
	handlers[MPlantStore] = (*Nub).handlePlantStore
	handlers[MUnplantStore] = (*Nub).handleUnplantStore
	handlers[MListPlanted] = (*Nub).handleListPlanted
	handlers[MFetchInt] = (*Nub).handleFetchInt
	handlers[MStoreInt] = (*Nub).handleStoreInt
	handlers[MFetchFloat] = (*Nub).handleFetchFloat
	handlers[MStoreFloat] = (*Nub).handleStoreFloat
	handlers[MFetchBytes] = (*Nub).handleFetchBytes
	handlers[MFetchLine] = (*Nub).handleFetchLine
	handlers[MStoreBytes] = (*Nub).handleStoreBytes
	handlers[MMetrics] = (*Nub).handleMetrics
}

// checkRequest validates a request's kind, space, and size ranges
// before any handler sees it. Everything a peer sends is untrusted: a
// reply kind arriving as a request, an unassigned kind byte, a space
// outside code/data, or a size past the payload cap is rejected here,
// counted as a malformed frame, and answered with an error — the
// handlers then run only on requests whose operands are in range. The
// kind table drives it, so a new kind's validation exists the moment
// its row does.
func (n *Nub) checkRequest(m *Msg) error {
	info, ok := kinds[m.Kind]
	if !ok || !info.request {
		return fmt.Errorf("unexpected request %v", m.Kind)
	}
	if info.space && !validSpace(m.Space) {
		return fmt.Errorf("nub serves only code and data spaces, not %q", string(m.Space))
	}
	if m.Size > maxDataLen {
		return fmt.Errorf("request size %d exceeds the %d-byte cap", m.Size, maxDataLen)
	}
	return nil
}

// safeHandle validates and services one request with panic containment:
// a panic in a handler — a corrupted segment list, an input no handler
// foresaw — becomes an MError reply and a RecoveredPanics count, never
// a dead target (the nub must not take the target down with it, §4.2).
func (n *Nub) safeHandle(m *Msg) (rep *Msg) {
	if err := n.checkRequest(m); err != nil {
		n.Stats.MalformedFrames.Add(1)
		return &Msg{Kind: MError, Data: []byte(err.Error())}
	}
	defer func() {
		if r := recover(); r != nil {
			n.Stats.RecoveredPanics.Add(1)
			rep = &Msg{Kind: MError, Data: []byte(fmt.Sprintf("nub: recovered from panic: %v", r))}
		}
	}()
	h := handlers[m.Kind]
	if h == nil {
		// A valid request kind with no table entry: a control message
		// (continue, step, kill, detach) sent outside Serve's loop.
		return errMsg("unexpected request %v", m.Kind)
	}
	return h(n, m)
}

// handleHello answers the liveness probe: the connection and the nub
// are alive, nothing else is touched.
func (n *Nub) handleHello(m *Msg) *Msg {
	return &Msg{Kind: MOK}
}

// handlePlantStore services a store used only for planting breakpoints:
// remember what it overwrites.
func (n *Nub) handlePlantStore(m *Msg) *Msg {
	p := n.P
	old := make([]byte, len(m.Data))
	if err := p.ReadBytes(m.Addr, old); err != nil {
		return errMsg("plant %#x: %v", m.Addr, err)
	}
	if err := p.WriteBytes(m.Addr, m.Data); err != nil {
		return errMsg("plant %#x: %v", m.Addr, err)
	}
	n.planted[m.Addr] = old
	return &Msg{Kind: MOK}
}

func (n *Nub) handleUnplantStore(m *Msg) *Msg {
	old, ok := n.planted[m.Addr]
	if !ok {
		return errMsg("no breakpoint planted at %#x", m.Addr)
	}
	if err := n.P.WriteBytes(m.Addr, old); err != nil {
		return errMsg("unplant %#x: %v", m.Addr, err)
	}
	delete(n.planted, m.Addr)
	return &Msg{Kind: MOK}
}

// handleListPlanted reports every planted breakpoint as (addr, original
// bytes) records: addr32, len32, bytes. Sorted by address — map
// iteration order would make the reply differ run to run, and the reply
// feeds reconnect resyncs that must be deterministic.
func (n *Nub) handleListPlanted(m *Msg) *Msg {
	addrs := make([]uint32, 0, len(n.planted))
	for addr := range n.planted {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var data []byte
	for _, addr := range addrs {
		old := n.planted[addr]
		var rec [8]byte
		amem.WriteInt(binary.LittleEndian, rec[0:4], uint64(addr))
		amem.WriteInt(binary.LittleEndian, rec[4:8], uint64(len(old)))
		data = append(data, rec[:]...)
		data = append(data, old...)
	}
	return &Msg{Kind: MPlanted, Data: data}
}

func (n *Nub) handleFetchInt(m *Msg) *Msg {
	if m.Size > 4 {
		return errMsg("fetch %#x: integer size %d exceeds the 4-byte wire word", m.Addr, m.Size)
	}
	v, f := n.P.Load(m.Addr, int(m.Size))
	if f != nil {
		return errMsg("fetch %#x: %v", m.Addr, f)
	}
	return &Msg{Kind: MValue, Val: uint64(v)}
}

// handleStoreInt refuses sizes past the wire word: the machine's Store
// takes a uint32, and silently narrowing an 8-byte value would store
// the low half and claim success.
func (n *Nub) handleStoreInt(m *Msg) *Msg {
	if m.Size > 4 {
		return errMsg("store %#x: integer size %d exceeds the 4-byte wire word", m.Addr, m.Size)
	}
	if f := n.P.Store(m.Addr, int(m.Size), uint32(m.Val)); f != nil {
		return errMsg("store %#x: %v", m.Addr, f)
	}
	return &Msg{Kind: MOK}
}

func (n *Nub) handleFetchFloat(m *Msg) *Msg {
	p := n.P
	size := int(m.Size)
	if lo, hi, ok := n.quirkRange(); ok && size == 8 && uint64(m.Addr) >= lo && uint64(m.Addr)+8 <= hi {
		// Machine-dependent nub code: un-swap the kernel's saved
		// floating registers.
		raw := make([]byte, 8)
		if err := p.ReadBytes(m.Addr, raw); err != nil {
			return errMsg("fetch %#x: %v", m.Addr, err)
		}
		swapWords(raw)
		v := amem.DecodeFloat(p.A.Order(), raw, amem.Float64)
		return &Msg{Kind: MFValue, Val: float64bits(v)}
	}
	v, f := p.LoadFloat(m.Addr, size)
	if f != nil {
		return errMsg("fetch %#x: %v", m.Addr, f)
	}
	return &Msg{Kind: MFValue, Val: float64bits(v)}
}

func (n *Nub) handleStoreFloat(m *Msg) *Msg {
	p := n.P
	size := int(m.Size)
	v := float64frombits(m.Val)
	if lo, hi, ok := n.quirkRange(); ok && size == 8 && uint64(m.Addr) >= lo && uint64(m.Addr)+8 <= hi {
		raw := make([]byte, 8)
		amem.EncodeFloat(p.A.Order(), raw, amem.Float64, v)
		swapWords(raw)
		if err := p.WriteBytes(m.Addr, raw); err != nil {
			return errMsg("store %#x: %v", m.Addr, err)
		}
		return &Msg{Kind: MOK}
	}
	if f := p.StoreFloat(m.Addr, size, v); f != nil {
		return errMsg("store %#x: %v", m.Addr, f)
	}
	return &Msg{Kind: MOK}
}

func (n *Nub) handleFetchBytes(m *Msg) *Msg {
	if m.Size > maxDataLen {
		return errMsg("fetch too large")
	}
	out := make([]byte, m.Size)
	if err := n.P.ReadBytes(m.Addr, out); err != nil {
		return errMsg("fetch %#x: %v", m.Addr, err)
	}
	return &Msg{Kind: MBytes, Data: out}
}

// handleFetchLine services a readahead fetch: return however many of
// the requested bytes exist in the containing segment rather than
// failing at the segment's edge.
func (n *Nub) handleFetchLine(m *Msg) *Msg {
	p := n.P
	if m.Size > maxDataLen {
		return errMsg("fetch too large")
	}
	for _, s := range p.Segs {
		if m.Addr < s.Base || m.Addr >= s.Base+uint32(len(s.Data)) {
			continue
		}
		size := min(uint64(m.Size), uint64(s.Base)+uint64(len(s.Data))-uint64(m.Addr))
		out := make([]byte, size)
		if err := p.ReadBytes(m.Addr, out); err != nil {
			return errMsg("fetch %#x: %v", m.Addr, err)
		}
		return &Msg{Kind: MBytes, Data: out}
	}
	return errMsg("fetch %#x: unmapped", m.Addr)
}

func (n *Nub) handleStoreBytes(m *Msg) *Msg {
	if err := n.P.WriteBytes(m.Addr, m.Data); err != nil {
		return errMsg("store %#x: %v", m.Addr, err)
	}
	return &Msg{Kind: MOK}
}

// handleMetrics serves the nub's own counters.
func (n *Nub) handleMetrics(m *Msg) *Msg {
	return &Msg{Kind: MMetricsReply, Data: encodeMetrics(n.appendMetricsLocked(nil))}
}

// appendMetricsLocked appends the nub and sim groups. The caller holds
// n.mu.
func (n *Nub) appendMetricsLocked(ms []Metric) []Metric {
	st := n.P.SimStats()
	ms = appendMetrics(ms, "nub", n.Stats.Snapshot())
	return appendMetrics(ms, "sim", SimStatsReport{
		Steps: n.P.Steps, Hits: st.Hits, Decodes: st.Decodes,
		Invalidations: st.Invalidations, Fallbacks: st.Fallbacks,
		Blocks: st.Blocks, BlockInsns: st.BlockInsns,
	})
}

// handleBatch services an MBatch envelope: each member is handled in
// order and the member replies travel back in one MBatchReply. Control
// messages — continue, kill, detach, nested batches — may not ride in
// an envelope; such members get individual error replies so the other
// members still complete.
func (n *Nub) handleBatch(m *Msg) *Msg {
	subs, err := DecodeBatch(m)
	if err != nil {
		return errMsg("%v", err)
	}
	n.Stats.Batches.Add(1)
	n.Stats.BatchedMsgs.Add(int64(len(subs)))
	reps := make([]*Msg, len(subs))
	for i, sub := range subs {
		switch sub.Kind {
		case MContinue, MStepInst, MKill, MDetach, MHello, MBatch, MBatchReply:
			reps[i] = errMsg("%v may not ride in a batch", sub.Kind)
		default:
			// Members go through the full validate-and-contain path: a
			// panic on one member yields that member an error reply and
			// lets the others complete.
			reps[i] = n.safeHandle(sub)
		}
	}
	env, err := EncodeBatch(MBatchReply, reps)
	if err != nil {
		// Oversized reply payloads and the like: report instead of
		// breaking the connection.
		return errMsg("batch reply: %v", err)
	}
	return env
}

// Serve handles one debugger connection: it announces the target,
// replays the pending event, then services requests until told to
// continue (which runs the target to its next event), to terminate, or
// to break the connection. On connection loss it returns with target
// state preserved, ready for a new Serve.
func (n *Nub) Serve(conn io.ReadWriter) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return fmt.Errorf("nub: target terminated")
	}
	if err := n.greetLocked(conn, MWelcome, 0); err != nil {
		return err
	}
	for {
		req, slow, err := readRequest(conn, n.ReadTimeout)
		if slow {
			n.Stats.SlowReads.Add(1)
		}
		if err != nil {
			if errors.Is(err, errOversize) {
				// An attacker-chosen payload length. Reply, then close:
				// the stream cannot be resynced past the bogus frame, and
				// draining it would read however many bytes the peer
				// declared.
				n.Stats.OversizeRejects.Add(1)
				_ = WriteMsg(conn, &Msg{Kind: MError, Data: []byte(err.Error())})
				n.Stats.MsgsSent.Add(1)
			}
			return err // connection broken; state preserved
		}
		done, err := n.serveOneLocked(conn, req)
		if done || err != nil {
			return err
		}
	}
}

// greetLocked announces the target — an MWelcome from a single-target
// nub, an MSession carrying the session id from the debug service —
// then replays the pending stop event, running the target to its first
// stop if nothing is latched yet. Callers hold n.mu.
func (n *Nub) greetLocked(w io.Writer, kind MsgKind, id uint64) error {
	if err := WriteMsg(w, &Msg{
		Kind: kind,
		Val:  id,
		Addr: n.ctxAddr,
		Size: uint32(n.P.A.Context().Size),
		Data: []byte(n.P.A.Name()),
	}); err != nil {
		return err
	}
	n.Stats.MsgsSent.Add(1)
	if n.pending == nil {
		n.resumeAndLatch(n.runAndLatch)
	}
	if err := WriteMsg(w, n.pending); err != nil {
		return err
	}
	n.Stats.MsgsSent.Add(1)
	return nil
}

// serveOneLocked services one already-read request on conn: the
// control kinds inline — they manipulate nub lifecycle state no handler
// may touch — and everything else through the validate-and-contain
// dispatch path. done reports that the connection is finished (the
// target was killed or the debugger detached). Callers hold n.mu.
func (n *Nub) serveOneLocked(conn io.ReadWriter, req *Msg) (done bool, err error) {
	n.Stats.MsgsReceived.Add(1)
	n.Stats.RoundTrips.Add(1)
	switch req.Kind {
	case MContinue, MStepInst:
		if n.P.State == machine.StateExited {
			if err := WriteMsg(conn, &Msg{Kind: MExited, Code: int32(n.P.ExitCode)}); err != nil {
				return false, err
			}
			n.Stats.MsgsSent.Add(1)
			return false, nil
		}
		n.resumeAndLatch(func() {
			if rerr := n.restoreContext(); rerr != nil {
				// The debugger scribbled the context away, or the
				// target unmapped it: latch the fault instead of
				// resuming with garbage registers.
				n.latchCtxFault(n.P.PC())
				return
			}
			if req.Kind == MStepInst {
				n.stepAndLatch()
			} else {
				n.runAndLatch()
			}
		})
		if err := WriteMsg(conn, n.pending); err != nil {
			return false, err
		}
		n.Stats.MsgsSent.Add(1)
	case MKill:
		n.dead = true
		n.P.State = machine.StateExited
		_ = WriteMsg(conn, &Msg{Kind: MOK})
		n.Stats.MsgsSent.Add(1)
		return true, nil
	case MDetach:
		_ = WriteMsg(conn, &Msg{Kind: MOK})
		n.Stats.MsgsSent.Add(1)
		return true, nil
	default:
		if err := WriteMsg(conn, n.safeHandle(req)); err != nil {
			return false, err
		}
		n.Stats.MsgsSent.Add(1)
	}
	return false, nil
}

// readRequest reads one request from conn under the two-phase server
// read deadline, for the nub and the debug service alike: the idle wait
// for a frame's first byte is unbounded — a debugger may sit at its
// prompt for hours — but once a frame has started, the rest must arrive
// within timeout (zero means DefaultServeTimeout, negative disables
// it), so a peer that opens a frame and trickles bytes (slowloris) is
// dropped instead of pinning the server forever. slow reports such a
// drop, for the caller to charge. Connections without deadline support
// (in-memory pipes wrapped by fault injectors) are served without the
// defence.
func readRequest(conn io.Reader, timeout time.Duration) (m *Msg, slow bool, err error) {
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return nil, false, err
	}
	if timeout == 0 {
		timeout = DefaultServeTimeout
	}
	d, ok := conn.(interface{ SetReadDeadline(time.Time) error })
	armed := ok && timeout > 0 && d.SetReadDeadline(time.Now().Add(timeout)) == nil
	m, err = readMsgRest(first[0], conn)
	if armed {
		_ = d.SetReadDeadline(time.Time{})
		if err != nil && isTimeout(err) {
			return nil, true, fmt.Errorf("nub: dropped slow read after %v: %w", timeout, err)
		}
	}
	return m, false, err
}

// ServeListener accepts connections one at a time, preserving target
// state between them, until the target is killed, the listener closes,
// or Shutdown is called. This is how a process waits on the network for
// a debugger.
func (n *Nub) ServeListener(l net.Listener) {
	n.lnMu.Lock()
	n.listener = l
	closing := n.closing
	n.lnMu.Unlock()
	if closing {
		_ = l.Close()
		return
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.lnMu.Lock()
		if n.closing {
			// Shutdown raced the accept: drop the connection instead of
			// serving past the drain.
			n.lnMu.Unlock()
			_ = conn.Close()
			return
		}
		n.serving = conn
		n.lnMu.Unlock()
		err = n.Serve(conn)
		_ = conn.Close()
		n.lnMu.Lock()
		n.serving = nil
		closing := n.closing
		n.lnMu.Unlock()
		n.mu.Lock()
		dead := n.dead
		n.mu.Unlock()
		if closing || (err == nil && dead) {
			return
		}
	}
}

// Shutdown stops ServeListener gracefully: a blocked Accept is
// unblocked by closing the listener, a connection being served finishes
// its in-flight request, an *idle* connection — a debugger sitting at
// its prompt, whose unbounded first-byte wait would otherwise pin the
// serve goroutine forever — is unblocked by expiring its read deadline,
// and no further connections are accepted. Target state is preserved —
// shutdown severs the debugger endpoint, it does not kill the target.
func (n *Nub) Shutdown() {
	n.lnMu.Lock()
	n.closing = true
	l := n.listener
	serving := n.serving
	n.lnMu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	if d, ok := serving.(interface{ SetReadDeadline(time.Time) error }); ok {
		// The expired deadline makes the idle readRequest return a
		// timeout error; the in-flight reply, if any, still writes.
		_ = d.SetReadDeadline(time.Now())
	}
}
