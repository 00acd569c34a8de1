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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// CodeRolledBack is the MError code the debug service attaches when a
// request crashed mid-flight and the session was rolled back to its
// last checkpoint. The rollback restores exactly the state before the
// request, so the client may simply retry it — stores, plants, and
// resumes included, which a plain connection loss never permits.
const CodeRolledBack int32 = 1

// MaxBatch bounds how many messages one MBatch envelope may carry.
const MaxBatch = 512

// WriteMsg encodes m to w in the little-endian wire format.
func WriteMsg(w io.Writer, m *Msg) error {
	if len(m.Data) > maxDataLen {
		return fmt.Errorf("nub: message payload too large (%d)", len(m.Data))
	}
	var hdr [27]byte
	hdr[0] = byte(m.Kind)
	hdr[1] = m.Space
	binary.LittleEndian.PutUint32(hdr[2:], m.Size)
	binary.LittleEndian.PutUint32(hdr[6:], m.Addr)
	binary.LittleEndian.PutUint64(hdr[10:], m.Val)
	binary.LittleEndian.PutUint32(hdr[18:], uint32(m.Code))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(m.Sig))
	hdr[26] = 0 // reserved
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(m.Data)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	if len(m.Data) > 0 {
		if _, err := w.Write(m.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadMsg decodes one message from r.
func ReadMsg(r io.Reader) (*Msg, error) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, err
	}
	return readMsgRest(first[0], r)
}

// readMsgRest decodes the remainder of a message whose first header
// byte has already been read. The split exists for the server's
// slowloris defence: the idle wait for a request's first byte is
// unbounded (a debugger may sit at its prompt forever), but once a
// frame has started the rest must arrive under a deadline.
func readMsgRest(first byte, r io.Reader) (*Msg, error) {
	var hdr [27]byte
	hdr[0] = first
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, err
	}
	m := &Msg{
		Kind:  MsgKind(hdr[0]),
		Space: hdr[1],
		Size:  binary.LittleEndian.Uint32(hdr[2:]),
		Addr:  binary.LittleEndian.Uint32(hdr[6:]),
		Val:   binary.LittleEndian.Uint64(hdr[10:]),
		Code:  int32(binary.LittleEndian.Uint32(hdr[18:])),
		Sig:   int32(binary.LittleEndian.Uint32(hdr[22:])),
	}
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	dlen := binary.LittleEndian.Uint32(n[:])
	if dlen > maxDataLen {
		return nil, fmt.Errorf("%w (%d)", errOversize, dlen)
	}
	if dlen > 0 {
		m.Data = make([]byte, dlen)
		if _, err := io.ReadFull(r, m.Data); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// reqIdempotent reports whether re-executing the request on the nub
// after a connection loss cannot change target state: fetches and
// listings may be replayed freely, but stores, plants, and the control
// messages must not be (a replayed continue would run the target
// twice). The kind table is the source of truth; an MBatch envelope is
// idempotent exactly when DecodeBatch would accept it and every member
// is. The client asks this of every envelope it writes, so the members
// are not decoded: their headers are walked in place, reading only the
// kind (byte 0) and the payload length (bytes 27–30).
func reqIdempotent(m *Msg) bool {
	if m.Kind != MBatch {
		return kindIdempotent(m.Kind)
	}
	if m.Val == 0 || m.Val > MaxBatch {
		return false
	}
	const hdrLen = 27 + 4 // WriteMsg's header and payload length
	data := m.Data
	for range m.Val {
		if len(data) < hdrLen {
			return false
		}
		// A nested envelope fails here too: neither envelope kind is an
		// idempotent request.
		n := binary.LittleEndian.Uint32(data[27:])
		if !kindIdempotent(MsgKind(data[0])) || n > maxDataLen || uint64(n) > uint64(len(data)-hdrLen) {
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

// EncodeBatch wraps msgs in an MBatch (or, from the nub, MBatchReply)
// envelope: Val carries the count, Data the concatenated wire encodings
// of the members. Envelopes do not nest.
func EncodeBatch(kind MsgKind, msgs []*Msg) (*Msg, error) {
	if kind != MBatch && kind != MBatchReply {
		return nil, fmt.Errorf("nub: %v is not a batch envelope kind", kind)
	}
	if len(msgs) == 0 || len(msgs) > MaxBatch {
		return nil, fmt.Errorf("nub: batch of %d messages (limit %d)", len(msgs), MaxBatch)
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if m.Kind == MBatch || m.Kind == MBatchReply {
			return nil, fmt.Errorf("nub: batches do not nest")
		}
		if err := WriteMsg(&buf, m); err != nil {
			return nil, err
		}
	}
	if buf.Len() > maxDataLen {
		return nil, fmt.Errorf("nub: batch payload too large (%d)", buf.Len())
	}
	return &Msg{Kind: kind, Val: uint64(len(msgs)), Data: buf.Bytes()}, nil
}

// DecodeBatch unpacks an MBatch or MBatchReply envelope. Malformed
// envelopes — wrong counts, truncated members, trailing garbage, nested
// batches — yield errors, never panics.
func DecodeBatch(env *Msg) ([]*Msg, error) {
	if env.Kind != MBatch && env.Kind != MBatchReply {
		return nil, fmt.Errorf("nub: %v is not a batch envelope", env.Kind)
	}
	if env.Val == 0 || env.Val > MaxBatch {
		return nil, fmt.Errorf("nub: batch claims %d messages (limit %d)", env.Val, MaxBatch)
	}
	r := bytes.NewReader(env.Data)
	msgs := make([]*Msg, 0, env.Val)
	for i := uint64(0); i < env.Val; i++ {
		m, err := ReadMsg(r)
		if err != nil {
			return nil, fmt.Errorf("nub: batch member %d: truncated or malformed: %w", i, err)
		}
		if m.Kind == MBatch || m.Kind == MBatchReply {
			return nil, fmt.Errorf("nub: batch member %d: batches do not nest", i)
		}
		msgs = append(msgs, m)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("nub: %d trailing bytes after batch members", r.Len())
	}
	return msgs, nil
}
