// Package nub implements ldb's debug nub and the little-endian
// communication protocol between ldb and the nub (§4.2 of the paper).
//
// The nub is loaded with the target program (here: attached to the
// simulated process); at startup it gets control from the pause trap in
// the startup code, and thereafter a signal handler gets control when
// the target faults or hits a breakpoint. The nub notifies ldb of the
// signal — passing a signal number, an associated code, and a context
// holding the registers — then services fetch and store requests until
// told to continue execution, to terminate, or to break the connection.
// When a connection breaks, even by a debugger crash, the nub preserves
// the state of the target program and waits for a new connection.
//
// Deliberately, the protocol does not mention breakpoints or
// single-stepping (§6): breakpoints are implemented entirely in ldb
// using fetches and stores.
package nub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MsgKind identifies a protocol message.
type MsgKind uint8

// Requests (debugger → nub) and replies/events (nub → debugger).
const (
	// requests
	MHello MsgKind = iota + 1
	MFetchInt
	MStoreInt
	MFetchFloat
	MStoreFloat
	MFetchBytes
	MStoreBytes
	MContinue
	MKill
	MDetach
	// §7.1's protocol enrichment: stores used only for planting
	// breakpoints, so the nub can report to a NEW debugger the
	// instructions overwritten by a lost one.
	MPlantStore
	MUnplantStore
	MListPlanted
	// MBatch is an envelope carrying N requests whose N replies come
	// back in one MBatchReply — one round trip instead of N. It adds no
	// new concepts to the protocol: the envelope carries ordinary
	// messages.
	MBatch
	// MFetchLine is the client cache's readahead vehicle: fetch UP TO
	// Size bytes at Addr, truncated where the containing segment ends,
	// instead of failing the way an exact fetch must. It never carries
	// user-visible semantics — the client issues it only speculatively
	// and falls back to exact fetches when the line comes up short.
	MFetchLine
	// replies and events
	MWelcome
	MValue
	MFValue
	MBytes
	MOK
	MError
	MEvent
	MExited
	MPlanted
	MBatchReply
	// MMetrics asks the endpoint for its counters, which come back as
	// an MMetricsReply: (name, value) pairs sorted by name (see
	// wirebody.go). A nub answers with its wire and robustness
	// counters (nub.*) and its simulator counters (sim.*); the debug
	// service adds its pool counters (service.*). Purely
	// informational.
	MMetrics
	MMetricsReply
	// MStepInst resumes the target for exactly one instruction: the
	// machine-level single step that degraded-mode debugging needs when
	// no symbol table is available to plant stepping breakpoints from.
	// The nub answers with the usual event message; a step that retires
	// without faulting reports SIGTRAP with code arch.TrapStep. Like
	// MContinue it may not travel in a batch.
	MStepInst
	// Session requests, understood only by the multi-session debug
	// service, whose welcome is a lobby (no architecture name).
	// MOpenSession spawns a fresh target from the service's program
	// registry (Data names the program) and binds the connection to it;
	// MAttachSession (Val carries the session id; 0 names the service's
	// default session) binds a connection — typically a reconnecting
	// client — to an existing session; MCloseSession kills the bound
	// session and releases its pool slot. Open and attach answer with
	// MSession (Val the id, Data the arch name, Addr/Size the context
	// record) followed by the session's pending stop event, mirroring
	// the single-target welcome handshake. A single-target nub refuses
	// all three like any unknown request.
	MOpenSession
	MAttachSession
	MCloseSession
	MSession
)

// kindInfo is one kind's row in the protocol's single source of truth:
// its wire name, whether it is a request (debugger → nub), whether it
// carries a space operand that must name the code or data space,
// whether replaying it after a connection loss cannot change target
// state, and, for a request, the kind of its successful reply.
type kindInfo struct {
	name       string
	request    bool
	space      bool
	idempotent bool
	reply      MsgKind
}

// kinds is the protocol's kind table. Every MsgKind constant must have
// a row here: String, checkRequest, reqIdempotent and the client's
// reply check all read it (a resume's MEvent reply may also be an
// MExited), and the wireproto analyzer proves it total and proves
// every request row has a dispatch arm and a client encoder — adding a
// kind without finishing its plumbing fails the build.
//
//ldb:kind-table
var kinds = map[MsgKind]kindInfo{
	MHello:      {name: "hello", request: true, idempotent: true, reply: MOK},
	MFetchInt:   {name: "fetchint", request: true, space: true, idempotent: true, reply: MValue},
	MStoreInt:   {name: "storeint", request: true, space: true, reply: MOK},
	MFetchFloat: {name: "fetchfloat", request: true, space: true, idempotent: true, reply: MFValue},
	MStoreFloat: {name: "storefloat", request: true, space: true, reply: MOK},
	MFetchBytes: {name: "fetchbytes", request: true, space: true, idempotent: true, reply: MBytes},
	MStoreBytes: {name: "storebytes", request: true, space: true, reply: MOK},
	MContinue:   {name: "continue", request: true, reply: MEvent},
	MKill:       {name: "kill", request: true, reply: MOK},
	MDetach:     {name: "detach", request: true, reply: MOK},
	// Plants and unplants change what MListPlanted reports: replaying a
	// delivered plant would record the trap itself as the "original"
	// instruction.
	MPlantStore:   {name: "plantstore", request: true, space: true, reply: MOK},
	MUnplantStore: {name: "unplantstore", request: true, space: true, reply: MOK},
	MListPlanted:  {name: "listplanted", request: true, idempotent: true, reply: MPlanted},
	// An MBatch envelope is idempotent exactly when every member is;
	// reqIdempotent handles it specially.
	MBatch:        {name: "batch", request: true, reply: MBatchReply},
	MFetchLine:    {name: "fetchline", request: true, space: true, idempotent: true, reply: MBytes},
	MMetrics:      {name: "metrics", request: true, idempotent: true, reply: MMetricsReply},
	MStepInst:     {name: "stepinst", request: true, reply: MEvent},
	MWelcome:      {name: "welcome"},
	MValue:        {name: "value"},
	MFValue:       {name: "fvalue"},
	MBytes:        {name: "bytes"},
	MOK:           {name: "ok"},
	MError:        {name: "error"},
	MEvent:        {name: "event"},
	MExited:       {name: "exited"},
	MPlanted:      {name: "planted"},
	MBatchReply:   {name: "batchreply"},
	MMetricsReply: {name: "metricsreply"},
	// MOpenSession spawns a process; replaying a delivered one after a
	// reconnect would spawn a second. MCloseSession kills the session —
	// also not replayable. MAttachSession only re-binds the connection
	// and re-reports the latched event, so a reconnecting client may
	// replay it freely.
	MOpenSession:   {name: "opensession", request: true, reply: MSession},
	MAttachSession: {name: "attachsession", request: true, idempotent: true, reply: MSession},
	MCloseSession:  {name: "closesession", request: true, reply: MOK},
	MSession:       {name: "session"},
}

func (k MsgKind) String() string {
	if info, ok := kinds[k]; ok {
		return info.name
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// Msg is one protocol message. All integer fields travel little-endian
// regardless of either machine's byte order; the protocol has been used
// on all combinations of host and target byte orders (§4.2).
type Msg struct {
	Kind  MsgKind
	Space byte   // 'c' or 'd' for memory requests
	Size  uint32 // access size
	Addr  uint32
	Val   uint64 // integer value or float bits
	Code  int32  // signal code / error code / exit status
	Sig   int32  // signal number in events
	Data  []byte // bytes payload; arch name in Welcome
}

// maxDataLen bounds a message's byte payload.
const maxDataLen = 1 << 20

// errOversize marks a frame whose declared payload length exceeds
// maxDataLen. The reader rejects such frames before allocating, and the
// server closes the connection rather than drain an attacker-chosen
// number of bytes.
var errOversize = errors.New("nub: message payload too large")

// errReserved marks a frame whose reserved header byte is not zero.
var errReserved = errors.New("nub: reserved header byte set")

// CodeRolledBack is the MError code the debug service attaches when a
// request crashed mid-flight and the session was rolled back to its
// last checkpoint. The rollback restores exactly the state before the
// request, so the client may simply retry it — stores, plants, and
// resumes included, which a plain connection loss never permits.
const CodeRolledBack int32 = 1

// MaxBatch bounds how many messages one MBatch envelope may carry.
const MaxBatch = 512

// hdrLen is a frame's fixed part: the 27-byte header (kind, space,
// size, address, value, code, signal and a reserved byte) and the
// 4-byte payload length.
const hdrLen = 27 + 4

// appendMsg appends m's frame to dst in the little-endian wire format.
func appendMsg(dst []byte, m *Msg) []byte {
	return append(appendHeader(dst, m, len(m.Data)), m.Data...)
}

// appendHeader appends m's frame up to its payload, declaring a payload
// of n bytes: a caller that builds the payload in place appends it
// next (or declares 0 and patches the length with endPayload).
func appendHeader(dst []byte, m *Msg, n int) []byte {
	dst = append(dst, byte(m.Kind), m.Space)
	dst = binary.LittleEndian.AppendUint32(dst, m.Size)
	dst = binary.LittleEndian.AppendUint32(dst, m.Addr)
	dst = binary.LittleEndian.AppendUint64(dst, m.Val)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Code))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Sig))
	dst = append(dst, 0) // reserved
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// endPayload patches the payload length of the frame that starts at
// dst[start] to cover everything appended after its header.
func endPayload(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+27:], uint32(len(dst)-start-hdrLen))
	return dst
}

// parseMsg decodes the frame at the start of b and returns it with the
// frame's length. The message's Data points into b; nothing is copied
// or allocated. A frame whose reserved byte is set is malformed, so
// appendMsg re-encodes every frame parseMsg accepts to the same bytes.
func parseMsg(b []byte) (Msg, int, error) {
	if len(b) < hdrLen {
		return Msg{}, 0, io.ErrUnexpectedEOF
	}
	if b[26] != 0 {
		return Msg{}, 0, errReserved
	}
	n := binary.LittleEndian.Uint32(b[27:])
	if n > maxDataLen {
		return Msg{}, 0, fmt.Errorf("%w (%d)", errOversize, n)
	}
	if uint64(n) > uint64(len(b)-hdrLen) {
		return Msg{}, 0, io.ErrUnexpectedEOF
	}
	m := Msg{
		Kind:  MsgKind(b[0]),
		Space: b[1],
		Size:  binary.LittleEndian.Uint32(b[2:]),
		Addr:  binary.LittleEndian.Uint32(b[6:]),
		Val:   binary.LittleEndian.Uint64(b[10:]),
		Code:  int32(binary.LittleEndian.Uint32(b[18:])),
		Sig:   int32(binary.LittleEndian.Uint32(b[22:])),
	}
	end := hdrLen + int(n)
	if n > 0 {
		m.Data = b[hdrLen:end:end]
	}
	return m, end, nil
}

// readFrame reads one frame from r into buf's storage, of which the
// first len(buf) bytes — none, or the first byte — have been read
// already, and returns the whole frame. The payload length is checked
// against maxDataLen before buf grows to hold it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	have := len(buf)
	buf = slices.Grow(buf, hdrLen-have)[:hdrLen]
	if _, err := io.ReadFull(r, buf[have:]); err != nil {
		return buf[:0], err
	}
	n := binary.LittleEndian.Uint32(buf[27:])
	if n > maxDataLen {
		return buf[:0], fmt.Errorf("%w (%d)", errOversize, n)
	}
	buf = slices.Grow(buf, int(n))[:hdrLen+int(n)]
	if _, err := io.ReadFull(r, buf[hdrLen:]); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// WriteMsg writes m to w as one frame in one Write. It is for peers
// that send the odd frame; a connection's own ends keep a framer.
func WriteMsg(w io.Writer, m *Msg) error {
	if len(m.Data) > maxDataLen {
		return fmt.Errorf("nub: message payload too large (%d)", len(m.Data))
	}
	_, err := w.Write(appendMsg(nil, m))
	return err
}

// ReadMsg reads one message from r into storage of its own.
func ReadMsg(r io.Reader) (*Msg, error) {
	b, err := readFrame(r, nil)
	if err != nil {
		return nil, err
	}
	m, _, err := parseMsg(b)
	return &m, err
}

// A framer is one end of a connection: the debugger's (Client) or the
// nub's (Nub.Serve, Service.Serve). It encodes each frame it writes
// into one buffer and writes it in one Write, and reads each frame into
// another, both kept for the life of the connection, so once they have
// grown to the connection's largest frame no message costs an
// allocation. The aliasing rule: the Data of a message read points into
// the read buffer and is valid only until the next read on the same
// framer; code that keeps it longer copies it.
type framer struct {
	rw  io.ReadWriter
	out []byte // the frame being written
	in  []byte // the frame last read
}

// write encodes m and writes it. A payload past the cap the peer
// enforces is refused before it is copied into the buffer.
func (f *framer) write(m *Msg) error {
	if len(m.Data) > maxDataLen {
		return fmt.Errorf("nub: message payload too large (%d)", len(m.Data))
	}
	f.out = appendMsg(f.out[:0], m)
	return f.flush()
}

// flush writes the one frame built in out: by write, or in place by
// the nub's handlers.
func (f *framer) flush() error {
	if n := len(f.out) - hdrLen; n > maxDataLen {
		return fmt.Errorf("nub: message payload too large (%d)", n)
	}
	_, err := f.rw.Write(f.out)
	return err
}

// read reads one frame, however long its first byte takes to arrive.
func (f *framer) read() (Msg, error) {
	return f.finish(readFrame(f.rw, f.in[:0]))
}

// readFirst waits, unbounded, for the first byte of the next frame;
// readRest then reads the rest. The split exists for the server's
// slowloris defence: a debugger may sit at its prompt forever, but
// once a frame has started the rest must arrive under a deadline.
func (f *framer) readFirst() error {
	f.in = slices.Grow(f.in[:0], hdrLen)[:1]
	_, err := io.ReadFull(f.rw, f.in)
	return err
}

// readRest reads the rest of the frame readFirst started.
func (f *framer) readRest() (Msg, error) {
	return f.finish(readFrame(f.rw, f.in[:1]))
}

// finish keeps the frame readFrame returned as the read buffer, and
// decodes it.
func (f *framer) finish(b []byte, err error) (Msg, error) {
	f.in = b
	if err != nil {
		return Msg{}, err
	}
	m, _, err := parseMsg(b)
	return m, err
}

// reqIdempotent reports whether re-executing the request on the nub
// after a connection loss cannot change target state: fetches and
// listings may be replayed freely, but stores, plants, and the control
// messages must not be (a replayed continue would run the target
// twice). The kind table is the source of truth; an MBatch envelope is
// idempotent exactly when DecodeBatch would accept it and every member
// is. The client asks this of every envelope it writes, so the members
// are not decoded: their headers are walked in place, reading only the
// kind (byte 0), the reserved byte (26) and the payload length (bytes
// 27–30).
func reqIdempotent(m *Msg) bool {
	if m.Kind != MBatch {
		return kindIdempotent(m.Kind)
	}
	if m.Val == 0 || m.Val > MaxBatch {
		return false
	}
	data := m.Data
	for range m.Val {
		if len(data) < hdrLen {
			return false
		}
		// A nested envelope fails here too: neither envelope kind is an
		// idempotent request.
		n := binary.LittleEndian.Uint32(data[27:])
		if !kindIdempotent(MsgKind(data[0])) || data[26] != 0 || n > maxDataLen || uint64(n) > uint64(len(data)-hdrLen) {
			return false
		}
		data = data[hdrLen+int(n):]
	}
	return len(data) == 0
}

// kindIdempotent reads k's row of the kind table.
func kindIdempotent(k MsgKind) bool {
	info, ok := kinds[k]
	return ok && info.request && info.idempotent
}

// EncodeBatch builds a kind envelope — MBatch, or from the nub
// MBatchReply — carrying msgs: Val is the count, and Data is dst with
// the members' frames appended. Envelopes do not nest.
func EncodeBatch(dst []byte, kind MsgKind, msgs []Msg) (Msg, error) {
	if kind != MBatch && kind != MBatchReply {
		return Msg{}, fmt.Errorf("nub: %v is not a batch envelope kind", kind)
	}
	if len(msgs) == 0 || len(msgs) > MaxBatch {
		return Msg{}, fmt.Errorf("nub: batch of %d messages (limit %d)", len(msgs), MaxBatch)
	}
	start := len(dst)
	for i := range msgs {
		m := &msgs[i]
		if m.Kind == MBatch || m.Kind == MBatchReply {
			return Msg{}, fmt.Errorf("nub: batches do not nest")
		}
		if len(m.Data) > maxDataLen {
			return Msg{}, fmt.Errorf("nub: message payload too large (%d)", len(m.Data))
		}
		dst = appendMsg(dst, m)
	}
	if len(dst)-start > maxDataLen {
		return Msg{}, fmt.Errorf("nub: batch payload too large (%d)", len(dst)-start)
	}
	return Msg{Kind: kind, Val: uint64(len(msgs)), Data: dst[start:]}, nil
}

// checkBatch validates an MBatch or MBatchReply envelope: wrong counts,
// truncated members, trailing garbage and nested batches are errors,
// never panics.
func checkBatch(env *Msg) error {
	if env.Kind != MBatch && env.Kind != MBatchReply {
		return fmt.Errorf("nub: %v is not a batch envelope", env.Kind)
	}
	if env.Val == 0 || env.Val > MaxBatch {
		return fmt.Errorf("nub: batch claims %d messages (limit %d)", env.Val, MaxBatch)
	}
	rest := env.Data
	for i := range env.Val {
		m, n, err := parseMsg(rest)
		if err != nil {
			return fmt.Errorf("nub: batch member %d: truncated or malformed: %w", i, err)
		}
		if m.Kind == MBatch || m.Kind == MBatchReply {
			return fmt.Errorf("nub: batch member %d: batches do not nest", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("nub: %d trailing bytes after batch members", len(rest))
	}
	return nil
}

// DecodeBatch unpacks an envelope checkBatch accepts, appending its
// members to dst. Their Data point into env.Data.
func DecodeBatch(dst []Msg, env *Msg) ([]Msg, error) {
	if err := checkBatch(env); err != nil {
		return dst, err
	}
	for rest := env.Data; len(rest) > 0; {
		m, n, _ := parseMsg(rest)
		dst = append(dst, m)
		rest = rest[n:]
	}
	return dst, nil
}
