package nub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
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
	return &Msg{Kind: MError, Data: fmt.Appendf(nil, format, args...)}
}

// appendErr appends an MError reply, formatting its text in place.
func appendErr(dst []byte, format string, args ...any) []byte {
	start := len(dst)
	dst = appendHeader(dst, &Msg{Kind: MError}, 0)
	return endPayload(fmt.Appendf(dst, format, args...), start)
}

// handlers dispatches validated requests to their servicing methods.
// Each appends its reply frame to dst and returns the extended slice:
// a reply carrying fetched bytes reads them straight into the frame,
// so no reply is built on the heap. The table is indexed by kind byte,
// filled once at init, and read only from safeHandle, behind the
// recover and after checkRequest — properties the recoverguard and
// wireproto analyzers enforce. The request travels by value: a pointer
// passed through the table would escape to the heap. The control
// messages that own the connection (continue, step, kill, detach) are
// deliberately absent: they are cases in serveOneLocked, because their
// replies interleave with resuming the target.
//
//ldb:dispatch-table
var handlers [256]func(n *Nub, m Msg, dst []byte) []byte

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

// safeHandle validates and services one request with panic containment,
// appending its reply to dst: a panic in a handler — a corrupted segment
// list, an input no handler foresaw — truncates whatever the handler
// had appended and becomes an MError reply and a RecoveredPanics count,
// never a dead target (the nub must not take the target down with it,
// §4.2).
func (n *Nub) safeHandle(m *Msg, dst []byte) (out []byte) {
	if err := n.checkRequest(m); err != nil {
		n.Stats.MalformedFrames.Add(1)
		return appendErr(dst, "%s", err)
	}
	start := len(dst)
	defer func() {
		if r := recover(); r != nil {
			n.Stats.RecoveredPanics.Add(1)
			out = appendErr(dst[:start], "nub: recovered from panic: %v", r)
		}
	}()
	h := handlers[m.Kind]
	if h == nil {
		// A valid request kind with no table entry: a control message
		// (continue, step, kill, detach) sent outside Serve's loop.
		return appendErr(dst, "unexpected request %v", m.Kind)
	}
	return h(n, *m, dst)
}

// handleHello answers the liveness probe: the connection and the nub
// are alive, nothing else is touched.
func (n *Nub) handleHello(m Msg, dst []byte) []byte {
	return appendMsg(dst, &Msg{Kind: MOK})
}

// handlePlantStore services a store used only for planting breakpoints:
// remember what it overwrites.
func (n *Nub) handlePlantStore(m Msg, dst []byte) []byte {
	p := n.P
	old := make([]byte, len(m.Data))
	if err := p.ReadBytes(m.Addr, old); err != nil {
		return appendErr(dst, "plant %#x: %v", m.Addr, err)
	}
	if err := p.WriteBytes(m.Addr, m.Data); err != nil {
		return appendErr(dst, "plant %#x: %v", m.Addr, err)
	}
	n.planted[m.Addr] = old
	return appendMsg(dst, &Msg{Kind: MOK})
}

func (n *Nub) handleUnplantStore(m Msg, dst []byte) []byte {
	old, ok := n.planted[m.Addr]
	if !ok {
		return appendErr(dst, "no breakpoint planted at %#x", m.Addr)
	}
	if err := n.P.WriteBytes(m.Addr, old); err != nil {
		return appendErr(dst, "unplant %#x: %v", m.Addr, err)
	}
	delete(n.planted, m.Addr)
	return appendMsg(dst, &Msg{Kind: MOK})
}

// handleListPlanted reports every planted breakpoint as (addr, original
// bytes) records: addr32, len32, bytes. Sorted by address — map
// iteration order would make the reply differ run to run, and the reply
// feeds reconnect resyncs that must be deterministic.
func (n *Nub) handleListPlanted(m Msg, dst []byte) []byte {
	addrs := make([]uint32, 0, len(n.planted))
	for addr := range n.planted {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	start := len(dst)
	dst = appendHeader(dst, &Msg{Kind: MPlanted}, 0)
	for _, addr := range addrs {
		old := n.planted[addr]
		dst = binary.LittleEndian.AppendUint32(dst, addr)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(old)))
		dst = append(dst, old...)
	}
	return endPayload(dst, start)
}

func (n *Nub) handleFetchInt(m Msg, dst []byte) []byte {
	if m.Size > 4 {
		return appendErr(dst, "fetch %#x: integer size %d exceeds the 4-byte wire word", m.Addr, m.Size)
	}
	v, f := n.P.Load(m.Addr, int(m.Size))
	if f != nil {
		return appendErr(dst, "fetch %#x: %v", m.Addr, f)
	}
	return appendMsg(dst, &Msg{Kind: MValue, Val: uint64(v)})
}

// handleStoreInt refuses sizes past the wire word: the machine's Store
// takes a uint32, and silently narrowing an 8-byte value would store
// the low half and claim success.
func (n *Nub) handleStoreInt(m Msg, dst []byte) []byte {
	if m.Size > 4 {
		return appendErr(dst, "store %#x: integer size %d exceeds the 4-byte wire word", m.Addr, m.Size)
	}
	if f := n.P.Store(m.Addr, int(m.Size), uint32(m.Val)); f != nil {
		return appendErr(dst, "store %#x: %v", m.Addr, f)
	}
	return appendMsg(dst, &Msg{Kind: MOK})
}

func (n *Nub) handleFetchFloat(m Msg, dst []byte) []byte {
	p := n.P
	size := int(m.Size)
	if lo, hi, ok := n.quirkRange(); ok && size == 8 && uint64(m.Addr) >= lo && uint64(m.Addr)+8 <= hi {
		// Machine-dependent nub code: un-swap the kernel's saved
		// floating registers.
		raw := make([]byte, 8)
		if err := p.ReadBytes(m.Addr, raw); err != nil {
			return appendErr(dst, "fetch %#x: %v", m.Addr, err)
		}
		swapWords(raw)
		v := amem.DecodeFloat(p.A.Order(), raw, amem.Float64)
		return appendMsg(dst, &Msg{Kind: MFValue, Val: float64bits(v)})
	}
	v, f := p.LoadFloat(m.Addr, size)
	if f != nil {
		return appendErr(dst, "fetch %#x: %v", m.Addr, f)
	}
	return appendMsg(dst, &Msg{Kind: MFValue, Val: float64bits(v)})
}

func (n *Nub) handleStoreFloat(m Msg, dst []byte) []byte {
	p := n.P
	size := int(m.Size)
	v := float64frombits(m.Val)
	if lo, hi, ok := n.quirkRange(); ok && size == 8 && uint64(m.Addr) >= lo && uint64(m.Addr)+8 <= hi {
		raw := make([]byte, 8)
		amem.EncodeFloat(p.A.Order(), raw, amem.Float64, v)
		swapWords(raw)
		if err := p.WriteBytes(m.Addr, raw); err != nil {
			return appendErr(dst, "store %#x: %v", m.Addr, err)
		}
		return appendMsg(dst, &Msg{Kind: MOK})
	}
	if f := p.StoreFloat(m.Addr, size, v); f != nil {
		return appendErr(dst, "store %#x: %v", m.Addr, f)
	}
	return appendMsg(dst, &Msg{Kind: MOK})
}

func (n *Nub) handleFetchBytes(m Msg, dst []byte) []byte {
	if m.Size > maxDataLen {
		return appendErr(dst, "fetch too large")
	}
	return n.appendFetched(dst, m.Addr, int(m.Size))
}

// appendFetched appends an MBytes reply carrying the size bytes at
// addr, read straight into the frame, or the MError that explains why
// they cannot be read.
func (n *Nub) appendFetched(dst []byte, addr uint32, size int) []byte {
	start := len(dst)
	dst = appendHeader(dst, &Msg{Kind: MBytes}, size)
	dst = slices.Grow(dst, size)[:len(dst)+size]
	if err := n.P.ReadBytes(addr, dst[len(dst)-size:]); err != nil {
		return appendErr(dst[:start], "fetch %#x: %v", addr, err)
	}
	return dst
}

// handleFetchLine services a readahead fetch: return however many of
// the requested bytes exist in the containing segment rather than
// failing at the segment's edge.
func (n *Nub) handleFetchLine(m Msg, dst []byte) []byte {
	if m.Size > maxDataLen {
		return appendErr(dst, "fetch too large")
	}
	for _, s := range n.P.Segs {
		if m.Addr < s.Base || m.Addr >= s.Base+uint32(len(s.Data)) {
			continue
		}
		size := min(uint64(m.Size), uint64(s.Base)+uint64(len(s.Data))-uint64(m.Addr))
		return n.appendFetched(dst, m.Addr, int(size))
	}
	return appendErr(dst, "fetch %#x: unmapped", m.Addr)
}

func (n *Nub) handleStoreBytes(m Msg, dst []byte) []byte {
	if err := n.P.WriteBytes(m.Addr, m.Data); err != nil {
		return appendErr(dst, "store %#x: %v", m.Addr, err)
	}
	return appendMsg(dst, &Msg{Kind: MOK})
}

// handleMetrics serves the nub's own counters.
func (n *Nub) handleMetrics(m Msg, dst []byte) []byte {
	return appendMsg(dst, &Msg{Kind: MMetricsReply, Data: encodeMetrics(n.appendMetricsLocked(nil))})
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
// order and its reply appended to one MBatchReply, so the member
// replies travel back in one frame. Control messages — continue, kill,
// detach, nested batches — may not ride in an envelope; such members
// get individual error replies so the other members still complete.
func (n *Nub) handleBatch(m Msg, dst []byte) []byte {
	if err := checkBatch(&m); err != nil {
		return appendErr(dst, "%v", err)
	}
	n.Stats.Batches.Add(1)
	n.Stats.BatchedMsgs.Add(int64(m.Val))
	start := len(dst)
	dst = appendHeader(dst, &Msg{Kind: MBatchReply, Val: m.Val}, 0)
	for rest := m.Data; len(rest) > 0; {
		sub, k, _ := parseMsg(rest)
		rest = rest[k:]
		switch sub.Kind {
		case MContinue, MStepInst, MKill, MDetach, MHello, MBatch, MBatchReply:
			dst = appendErr(dst, "%v may not ride in a batch", sub.Kind)
		default:
			// Members go through the full validate-and-contain path: a
			// panic on one member yields that member an error reply and
			// lets the others complete.
			dst = n.safeHandle(&sub, dst)
		}
	}
	if size := len(dst) - start - hdrLen; size > maxDataLen {
		// Report instead of breaking the connection.
		return appendErr(dst[:start], "batch reply: nub: batch payload too large (%d)", size)
	}
	return endPayload(dst, start)
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
	f := &framer{rw: conn}
	if err := n.greetLocked(f, MWelcome, 0); err != nil {
		return err
	}
	for {
		req, slow, err := readRequest(f, n.ReadTimeout)
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
				_ = f.write(&Msg{Kind: MError, Data: []byte(err.Error())})
				n.Stats.MsgsSent.Add(1)
			}
			return err // connection broken; state preserved
		}
		var done bool
		f.out, done = n.serveOneLocked(f.out[:0], &req)
		err = f.flush()
		if err == nil || done {
			n.Stats.MsgsSent.Add(1)
		}
		if done {
			// The target was killed or the debugger detached: the
			// connection is finished, whether or not the reply got out.
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// greetLocked announces the target — an MWelcome from a single-target
// nub, an MSession carrying the session id from the debug service —
// then replays the pending stop event, running the target to its first
// stop if nothing is latched yet. Callers hold n.mu.
func (n *Nub) greetLocked(f *framer, kind MsgKind, id uint64) error {
	if err := f.write(&Msg{
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
	if err := f.write(n.pending); err != nil {
		return err
	}
	n.Stats.MsgsSent.Add(1)
	return nil
}

// serveOneLocked services one already-read request, appending its reply
// frame to dst: the control kinds inline — they manipulate nub
// lifecycle state no handler may touch — and everything else through
// the validate-and-contain dispatch path. done reports that the
// connection is finished (the target was killed or the debugger
// detached). The caller writes the reply. Callers hold n.mu.
func (n *Nub) serveOneLocked(dst []byte, req *Msg) (reply []byte, done bool) {
	n.Stats.MsgsReceived.Add(1)
	n.Stats.RoundTrips.Add(1)
	switch req.Kind {
	case MContinue, MStepInst:
		if n.P.State == machine.StateExited {
			return appendMsg(dst, &Msg{Kind: MExited, Code: int32(n.P.ExitCode)}), false
		}
		step := req.Kind == MStepInst
		n.resumeAndLatch(func() {
			if rerr := n.restoreContext(); rerr != nil {
				// The debugger scribbled the context away, or the
				// target unmapped it: latch the fault instead of
				// resuming with garbage registers.
				n.latchCtxFault(n.P.PC())
				return
			}
			if step {
				n.stepAndLatch()
			} else {
				n.runAndLatch()
			}
		})
		return appendMsg(dst, n.pending), false
	case MKill:
		n.dead = true
		n.P.State = machine.StateExited
		return appendMsg(dst, &Msg{Kind: MOK}), true
	case MDetach:
		return appendMsg(dst, &Msg{Kind: MOK}), true
	default:
		return n.safeHandle(req, dst), false
	}
}

// readRequest reads one request through f under the two-phase server
// read deadline, for the nub and the debug service alike: the idle wait
// for a frame's first byte is unbounded — a debugger may sit at its
// prompt for hours — but once a frame has started, the rest must arrive
// within timeout (zero means DefaultServeTimeout, negative disables
// it), so a peer that opens a frame and trickles bytes (slowloris) is
// dropped instead of pinning the server forever. slow reports such a
// drop, for the caller to charge. Connections without deadline support
// (in-memory pipes wrapped by fault injectors) are served without the
// defence. The request's Data points into f's read buffer.
func readRequest(f *framer, timeout time.Duration) (m Msg, slow bool, err error) {
	if err := f.readFirst(); err != nil {
		return Msg{}, false, err
	}
	if timeout == 0 {
		timeout = DefaultServeTimeout
	}
	d, ok := f.rw.(interface{ SetReadDeadline(time.Time) error })
	armed := ok && timeout > 0 && d.SetReadDeadline(time.Now().Add(timeout)) == nil
	m, err = f.readRest()
	if armed {
		_ = d.SetReadDeadline(time.Time{})
		if err != nil && isTimeout(err) {
			return Msg{}, true, fmt.Errorf("nub: dropped slow read after %v: %w", timeout, err)
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
