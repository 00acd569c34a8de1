package nub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"ldb/internal/amem"
	"ldb/internal/arch"
	"ldb/internal/machine"
)

func float64bits(v float64) uint64     { return math.Float64bits(v) }
func float64frombits(u uint64) float64 { return math.Float64frombits(u) }

// Event is a signal or exit reported by the nub.
type Event struct {
	Exited bool
	Status int
	Sig    arch.Signal
	Code   int
	PC     uint32
	// Ctx is the target address of the context record.
	Ctx uint32
}

func (e *Event) String() string {
	if e.Exited {
		return fmt.Sprintf("exited(%d)", e.Status)
	}
	return fmt.Sprintf("%v code=%d pc=%#x", e.Sig, e.Code, e.PC)
}

// ErrConnLost is wrapped into every error caused by a broken or
// timed-out connection, as opposed to an error the nub itself reported
// over a healthy wire. Callers can test with errors.Is (or IsConnLost).
var ErrConnLost = errors.New("nub: connection lost")

// ErrWelcomeMismatch is wrapped into reconnect errors when the redialed
// endpoint announces a different target than the session began with.
var ErrWelcomeMismatch = errors.New("nub: reconnected to a different target")

// ErrRolledBack is wrapped into errors for requests that crashed
// server-side: the debug service rolled the session back to its last
// checkpoint, restoring exactly the state the request saw, so the
// request — any request, stores and resumes included — may be safely
// retried. The client does so transparently, bounded by maxReplays.
var ErrRolledBack = errors.New("nub: session rolled back to its last checkpoint")

// IsConnLost reports whether err was caused by a broken or timed-out
// connection (the session may have been transparently reconnected; see
// Client.Last for the nub's latched event in that case).
func IsConnLost(err error) bool { return errors.Is(err, ErrConnLost) }

const (
	// DefaultTimeout bounds each wire request so a dead nub yields an
	// error, never a hang. SetTimeout overrides; 0 disables.
	DefaultTimeout = 30 * time.Second
	// DefaultRetries is how many redials one reconnect cycle attempts.
	DefaultRetries = 3
	// maxReplays bounds how many times one request is transparently
	// re-sent across reconnects before the error surfaces.
	maxReplays = 4
)

// Client is the debugger end of the nub protocol. On top of the plain
// request/reply protocol it batches messages into MBatch envelopes
// (unless SetBatching turns them off), keeps a read-through
// cache of target memory that a continue fully invalidates, counts
// wire traffic in a Stats, and survives a flaky wire: every request
// runs under a deadline, and on connection loss the client redials,
// re-validates the welcome, resyncs planted breakpoints, drops the
// cache, and replays the interrupted request when that is safe.
type Client struct {
	conn io.ReadWriter // counted view of raw
	raw  io.ReadWriter // the connection itself (deadlines, close)
	// f is the client's end of the codec over conn. Its buffers, the
	// envelope payload in body and the envelope reply's members in reps
	// belong to the client and survive reconnects.
	f        framer
	body     []byte
	reps     []Msg
	ArchName string
	CtxAddr  uint32
	CtxSize  uint32
	// Last is the most recent event. A reconnect updates it from the
	// event the nub replays in its handshake.
	Last *Event

	stats   Stats
	batchOn bool // client-side switch (default on)
	cache   *memCache
	order   binary.ByteOrder // target byte order, for serving cached ints

	timeout time.Duration
	retries int
	redial  func() (io.ReadWriter, error)
	// replayable is false only while awaiting the reply to a delivered
	// non-idempotent request — the one window where a connection loss
	// cannot be recovered transparently. Fault injectors gate on it.
	replayable atomic.Bool
	// planted is the nub's planted-breakpoint list from the most recent
	// reconnect resync.
	planted []PlantedRecord

	sessionsOK bool // the first welcome was a lobby (a debug service)
	// sessionID is the service session this connection is bound to, 0
	// when none. A reconnect re-attaches to it instead of trusting the
	// front-door welcome.
	sessionID      uint64
	sessionProgram string
}

// Connect performs the protocol handshake: it reads the nub's welcome
// and the pending event. Batching and caching are on by default
// (Continue invalidates the cache). The welcome must name a registered
// architecture — the integer cache and context layout depend on it —
// or be a debug service's lobby, which names none.
func Connect(conn io.ReadWriter) (*Client, error) {
	c := &Client{batchOn: true, cache: newMemCache(), timeout: DefaultTimeout, retries: DefaultRetries}
	c.replayable.Store(true)
	if err := c.adopt(conn, false); err != nil {
		return nil, err
	}
	return c, nil
}

// adopt performs the welcome handshake on rw and makes it the client's
// connection. With verify set (reconnecting) the welcome must name the
// same target the session began with, the memory cache is dropped, and
// the nub's planted-breakpoint list is resynced; without it (first
// connect) the welcome establishes the session's identity.
//
// A debug service greets every connection with a lobby welcome (empty
// architecture name, no event), and a reconnecting client that was
// bound to a session re-attaches to it by id.
func (c *Client) adopt(rw io.ReadWriter, verify bool) error {
	c.raw = rw
	c.conn = &countRW{rw: rw, s: &c.stats}
	c.f.rw = c.conn
	w, err := c.readWire()
	if err != nil {
		return err
	}
	if w.Kind != MWelcome {
		return fmt.Errorf("nub: expected welcome, got %v", w.Kind)
	}
	archName, ctxAddr, ctxSize := string(w.Data), w.Addr, w.Size
	lobby := archName == ""
	if !verify {
		c.sessionsOK = lobby
	}
	if verify && c.sessionID != 0 {
		// Re-binding to a session; attachWire verifies the session's
		// identity and replays its event.
		if !lobby {
			return fmt.Errorf("%w: reconnected endpoint is not a debug service", ErrWelcomeMismatch)
		}
		if err := c.attachWire(c.sessionID, true); err != nil {
			return err
		}
		c.InvalidateCache()
		if !c.Last.Exited {
			return c.resyncPlanted()
		}
		return nil
	}
	if lobby {
		// No target yet: identity arrives with OpenSession or
		// AttachSession.
		c.ArchName, c.CtxAddr, c.CtxSize = "", 0, 0
		c.order = nil
		if verify {
			c.InvalidateCache()
		}
		return nil
	}
	a, ok := arch.Lookup(archName)
	if !ok {
		return fmt.Errorf("nub: welcome names unknown architecture %q", archName)
	}
	if verify && (archName != c.ArchName || ctxAddr != c.CtxAddr || ctxSize != c.CtxSize) {
		return fmt.Errorf("%w: welcome says %s ctx=%#x+%d, session began with %s ctx=%#x+%d",
			ErrWelcomeMismatch, archName, ctxAddr, ctxSize, c.ArchName, c.CtxAddr, c.CtxSize)
	}
	c.ArchName, c.CtxAddr, c.CtxSize = archName, ctxAddr, ctxSize
	c.order = a.Order()
	ev, err := c.readEvent()
	if err != nil {
		return err
	}
	c.Last = ev
	if verify {
		// No cached byte may survive: this connection may have been
		// preceded by stores whose replies were lost.
		c.InvalidateCache()
		if !ev.Exited {
			if err := c.resyncPlanted(); err != nil {
				return err
			}
		}
	}
	return nil
}

// attachWire binds the connection to session id in one exchange —
// roundTrip would recurse into reconnection, and a failure here must
// fail the adoption attempt instead. With verify set the MSession
// reply must match the identity the session began with; without it the
// reply establishes that identity.
func (c *Client) attachWire(id uint64, verify bool) error {
	rep, _, err := c.exchange(&Msg{Kind: MAttachSession, Val: id})
	if err != nil {
		return err
	}
	return c.adoptSession(rep, verify)
}

// adoptSession installs the identity carried by an MSession reply and
// reads the session's replayed stop event.
func (c *Client) adoptSession(rep Msg, verify bool) error {
	archName, ctxAddr, ctxSize := string(rep.Data), rep.Addr, rep.Size
	a, ok := arch.Lookup(archName)
	if !ok {
		return fmt.Errorf("nub: session names unknown architecture %q", archName)
	}
	if verify && (rep.Val != c.sessionID || archName != c.ArchName || ctxAddr != c.CtxAddr || ctxSize != c.CtxSize) {
		return fmt.Errorf("%w: session %d says %s ctx=%#x+%d, session began with %s ctx=%#x+%d",
			ErrWelcomeMismatch, rep.Val, archName, ctxAddr, ctxSize, c.ArchName, c.CtxAddr, c.CtxSize)
	}
	c.sessionID = rep.Val
	c.ArchName, c.CtxAddr, c.CtxSize = archName, ctxAddr, ctxSize
	c.order = a.Order()
	ev, err := c.readEvent()
	if err != nil {
		return err
	}
	c.Last = ev
	return nil
}

// resyncPlanted asks the just-adopted connection for the nub's planted
// breakpoints in one exchange — roundTrip would recurse into
// reconnection on failure, and a failure here must instead fail this
// adoption attempt.
func (c *Client) resyncPlanted() error {
	rep, _, err := c.exchange(&Msg{Kind: MListPlanted})
	if err != nil {
		return err
	}
	recs, err := parsePlanted(rep.Data)
	if err != nil {
		return err
	}
	c.planted = recs
	return nil
}

// ResyncedPlanted returns the planted-breakpoint records the nub
// reported during the most recent reconnect: nil before the first, and
// when that reconnect failed before it could ask; empty, not nil, when
// the nub holds none.
func (c *Client) ResyncedPlanted() []PlantedRecord { return c.planted }

// SetTimeout bounds every wire request (and the event wait of a
// Continue); 0 disables the deadline. A timed-out request poisons the
// stream, so it is treated as a connection loss.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Timeout returns the per-request deadline.
func (c *Client) Timeout() time.Duration { return c.timeout }

// SetRetries sets how many redials one reconnect cycle attempts before
// giving up. Values below 1 mean one attempt.
func (c *Client) SetRetries(n int) { c.retries = n }

// Retries returns the reconnect attempt bound.
func (c *Client) Retries() int { return max(c.retries, 1) }

// SetRedial installs the dial function used to re-establish a lost
// connection. Dial installs one automatically; embedders handing
// Connect a raw conn must call this for reconnection to work.
func (c *Client) SetRedial(f func() (io.ReadWriter, error)) { c.redial = f }

// Replayable reports whether losing the connection at this instant is
// transparently recoverable: true except while awaiting the reply to a
// delivered store, plant, or continue. Deterministic fault injectors
// (faultrw) gate drops on it so a soak run stays byte-identical to a
// clean one.
func (c *Client) Replayable() bool { return c.replayable.Load() }

// SetBatching enables or disables MBatch envelopes. Turning it off
// gives the paper's plain transport, one request per round trip.
func (c *Client) SetBatching(on bool) { c.batchOn = on }

// SetCaching enables or disables the client-side memory cache. Turning
// it off drops everything cached.
func (c *Client) SetCaching(on bool) {
	if on {
		if c.cache == nil {
			c.cache = newMemCache()
		}
		return
	}
	c.cache = nil
}

// Batching reports whether envelopes are in use on this connection.
func (c *Client) Batching() bool { return c.batchOn }

// Caching reports whether the client-side memory cache is in use.
func (c *Client) Caching() bool { return c.cache != nil }

// Stats returns a snapshot of the wire counters.
func (c *Client) Stats() StatsSnapshot { return c.stats.Snapshot() }

// ResetStats zeroes the wire counters.
func (c *Client) ResetStats() { c.stats.Reset() }

// InvalidateCache drops every cached byte. Continue does this
// automatically; it is exported for embedders that know the target
// changed some other way.
func (c *Client) InvalidateCache() {
	if c.cache != nil {
		c.cache.reset()
		c.stats.Invalidations.Add(1)
	}
}

// Dial connects to a nub listening on a TCP address and installs a
// redial function so a lost connection reconnects to the same address.
func Dial(addr string) (*Client, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	c, err := Connect(conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	c.SetRedial(func() (io.ReadWriter, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return nc, nil
	})
	return c, conn, nil
}

// readWire decodes one message under the deadline, classifying any
// failure as a connection loss. The message's Data is valid until the
// next read.
func (c *Client) readWire() (Msg, error) {
	var m Msg
	err := c.guarded(func() error {
		var e error
		m, e = c.f.read()
		return e
	})
	if err != nil {
		return Msg{}, fmt.Errorf("%w reading reply: %v", ErrConnLost, err)
	}
	c.stats.MsgsReceived.Add(1)
	return m, nil
}

// guarded runs one wire operation under the configured deadline:
// through net.Conn deadlines when the connection supports them, else
// through a watchdog that severs the connection so the blocked
// operation returns. With neither, the deadline is unenforceable.
func (c *Client) guarded(op func() error) error {
	if c.timeout <= 0 {
		return op()
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := c.raw.(deadliner); ok {
		if d.SetDeadline(time.Now().Add(c.timeout)) == nil {
			err := op()
			d.SetDeadline(time.Time{})
			if err != nil && isTimeout(err) {
				c.stats.Timeouts.Add(1)
				err = fmt.Errorf("timed out after %v: %w", c.timeout, err)
			}
			return err
		}
	}
	if cl, ok := c.raw.(io.Closer); ok {
		var fired atomic.Bool
		t := time.AfterFunc(c.timeout, func() { fired.Store(true); cl.Close() })
		err := op()
		t.Stop()
		//ldb:allow detstate the watchdog flag only reshapes a timeout error message on an already-failed request; transcript content is unaffected
		if err != nil && fired.Load() {
			c.stats.Timeouts.Add(1)
			err = fmt.Errorf("timed out after %v (watchdog): %w", c.timeout, err)
		}
		return err
	}
	return op()
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// readEvent reads the stop event a handshake replays after its
// welcome or MSession reply.
func (c *Client) readEvent() (*Event, error) {
	m, err := c.readWire()
	if err != nil {
		return nil, err
	}
	if err := checkReply(&m, MEvent); err != nil {
		return nil, err
	}
	return event(&m), nil
}

// event decodes an MEvent or MExited message.
func event(m *Msg) *Event {
	if m.Kind == MExited {
		return &Event{Exited: true, Status: int(m.Code)}
	}
	return &Event{Sig: arch.Signal(m.Sig), Code: int(m.Code), PC: uint32(m.Val), Ctx: m.Addr}
}

// checkReply accepts a reply of kind want (an MExited answers for an
// MEvent). An MError reply is the nub's refusal on a healthy wire, not
// a connection loss; a rolled-back one is marked retryable, since the
// session is back at the state the request saw.
func checkReply(rep *Msg, want MsgKind) error {
	switch {
	case rep.Kind == MError && rep.Code == CodeRolledBack:
		return fmt.Errorf("%w: %s", ErrRolledBack, rep.Data)
	case rep.Kind == MError:
		return errors.New("nub: " + string(rep.Data))
	case rep.Kind != want && (want != MEvent || rep.Kind != MExited):
		return fmt.Errorf("nub: expected %v, got %v", want, rep.Kind)
	}
	return nil
}

// exchange writes one request on the current connection, reads its
// reply, counts the round trip and checks the reply against the kind
// table. delivered reports whether the request was fully written — if
// so, the nub may have executed it even when the reply was lost.
//
// For a request that is not idempotent the replay gate closes before
// the write (the nub may read, run and answer a delivered request
// before the write returns); the caller reopens it once it holds all
// the request's answer.
//
// The request goes out as one frame in one Write; the reply's Data is
// valid until the next read on the connection.
func (c *Client) exchange(req *Msg) (rep Msg, delivered bool, err error) {
	if !reqIdempotent(req) {
		c.replayable.Store(false)
	}
	if err := c.guarded(func() error { return c.f.write(req) }); err != nil {
		return Msg{}, false, fmt.Errorf("%w writing %v: %v", ErrConnLost, req.Kind, err)
	}
	c.stats.MsgsSent.Add(1)
	if rep, err = c.readWire(); err != nil {
		return Msg{}, true, err
	}
	c.stats.RoundTrips.Add(1)
	if err := checkReply(&rep, kinds[req.Kind].reply); err != nil {
		return Msg{}, true, err
	}
	return rep, true, nil
}

// roundTrip performs a request/reply exchange, riding out connection
// loss: it reconnects and replays the request when that cannot change
// target state — the request is idempotent, or its write never
// completed, so the nub never saw a whole message. A delivered store
// or plant whose reply was lost surfaces the error instead: the
// session is reconnected, but whether the request executed is unknown.
func (c *Client) roundTrip(req *Msg) (Msg, error) {
	for replay := 0; ; replay++ {
		rep, delivered, err := c.exchange(req)
		c.replayable.Store(true)
		if err == nil {
			return rep, nil
		}
		if errors.Is(err, ErrRolledBack) {
			// The request crashed server-side and the session was rolled
			// back to exactly the state the request saw: retrying is safe
			// even for stores, plants, and resumes. Deterministic crashes
			// surface once the replay budget runs out.
			if replay >= maxReplays {
				return Msg{}, fmt.Errorf("nub: %v failed after %d replays: %w", req.Kind, replay, err)
			}
			c.stats.Replays.Add(1)
			c.InvalidateCache()
			continue
		}
		if !errors.Is(err, ErrConnLost) {
			return rep, err
		}
		if rerr := c.reconnect(); rerr != nil {
			return Msg{}, fmt.Errorf("%w (%w)", err, rerr)
		}
		if delivered && !reqIdempotent(req) {
			return Msg{}, fmt.Errorf("%w during %v; session reconnected, but the request may have executed and was not replayed", ErrConnLost, req.Kind)
		}
		if replay >= maxReplays {
			return Msg{}, fmt.Errorf("nub: %v failed after %d replays: %w", req.Kind, replay, err)
		}
		c.stats.Replays.Add(1)
	}
}

// reconnect redials the nub with bounded exponential backoff and
// jitter, re-validates the welcome against the session's identity, and
// re-adopts the connection (resyncing planted breakpoints and dropping
// the cache). A welcome mismatch aborts immediately — redialing a
// different target is not a transient failure.
func (c *Client) reconnect() error {
	// Only a successful resync may leave a planted list behind: a
	// caller reconciling after a lost reply must not read a stale one.
	c.planted = nil
	if c.redial == nil {
		return errors.New("no redial endpoint configured")
	}
	c.closeRaw()
	retries := max(c.retries, 1)
	var last error
	for i := 0; i < retries; i++ {
		if i > 0 {
			time.Sleep(backoff(i))
		}
		rw, err := c.redial()
		if err != nil {
			last = err
			continue
		}
		if err := c.adopt(rw, true); err != nil {
			if cl, ok := rw.(io.Closer); ok {
				cl.Close()
			}
			if errors.Is(err, ErrWelcomeMismatch) {
				c.stats.ReconnectFails.Add(1)
				return err
			}
			last = err
			continue
		}
		c.stats.Reconnects.Add(1)
		return nil
	}
	c.stats.ReconnectFails.Add(1)
	return fmt.Errorf("reconnect gave up after %d attempts: %v", retries, last)
}

// backoff is the delay before reconnect attempt i (i >= 1): roughly
// 5ms doubling per attempt, capped at 250ms, with ±50% jitter so
// simultaneous clients do not redial in lockstep.
func backoff(attempt int) time.Duration {
	base := 5 * time.Millisecond << min(attempt-1, 6)
	if base > 250*time.Millisecond {
		base = 250 * time.Millisecond
	}
	//ldb:allow detstate reconnect jitter paces redials; it never reaches reply bytes or the transcript
	return base/2 + rand.N(base)
}

// cacheable reports whether the cache may serve this space at all: only
// the code and data spaces travel on the wire.
func cacheable(space amem.Space) bool {
	return space == amem.Code || space == amem.Data
}

// serve answers a fetch from the cache when one cached range holds all
// its bytes, counting the hit or the miss. Requests other than integer
// and byte fetches are never served, and count nothing. A served byte
// fetch's Data points into the cache; the caller copies it.
func (c *Client) serve(m *Msg) (Result, bool) {
	space := amem.Space(m.Space)
	if c.cache == nil || !cacheable(space) {
		return Result{}, false
	}
	switch {
	case m.Kind == MFetchInt:
		if v, ok := c.cache.serveInt(c.order, space, m.Addr, int(m.Size)); ok {
			c.stats.CacheHits.Add(1)
			return Result{Val: v}, true
		}
	case m.Kind == MFetchBytes && m.Size > 0:
		if b, ok := c.cache.lookup(space, m.Addr, int(m.Size)); ok {
			c.stats.CacheHits.Add(1)
			return Result{Data: b}, true
		}
	default:
		return Result{}, false
	}
	c.stats.CacheMisses.Add(1)
	return Result{}, false
}

// settle applies what a request's successful reply tells the cache
// about target memory, and returns the request's result, whose Data is
// the reply's. Fetched bytes are inserted; an integer or byte store
// patches the cached copy (a plant writes its trap through it); a float
// store, which the nub may word-swap on the way in, evicts 12 bytes;
// and an unplant, whose restored bytes only the nub knows, evicts 16.
func (c *Client) settle(req, rep *Msg) Result {
	r := Result{Val: rep.Val, Data: rep.Data}
	space := amem.Space(req.Space)
	if c.cache == nil || !cacheable(space) {
		return r
	}
	switch req.Kind {
	case MFetchInt:
		if b := c.word(req.Size, rep.Val); b != nil {
			c.cache.insert(space, req.Addr, b)
		}
	case MStoreInt:
		if b := c.word(req.Size, req.Val); b != nil {
			c.cache.patch(space, req.Addr, b)
		} else {
			c.cache.invalidate(space, req.Addr, max(int(req.Size), 8))
		}
	case MFetchBytes, MFetchLine:
		c.cache.insert(space, req.Addr, rep.Data)
	case MStoreBytes, MPlantStore:
		c.cache.patch(space, req.Addr, req.Data)
	case MStoreFloat:
		c.cache.invalidate(space, req.Addr, 12)
	case MUnplantStore:
		c.cache.invalidate(space, req.Addr, 16)
	default:
		// No other request reveals or changes target memory.
		return r
	}
	return r
}

// word is v as the target stores a size-byte integer, or nil for a
// size past the wire's 4-byte word (or an unknown byte order).
func (c *Client) word(size uint32, v uint64) []byte {
	if c.order == nil || size == 0 || size > 4 {
		return nil
	}
	b := make([]byte, size)
	amem.WriteInt(c.order, b, v)
	return b
}

// send puts one request on the wire alone and settles its reply.
func (c *Client) send(req *Msg) Result {
	rep, err := c.roundTrip(req)
	if err != nil {
		return Result{Err: err}
	}
	return c.settle(req, &rep)
}

// readahead is how many bytes a cache-missing FetchInt pulls over the
// wire instead of just the word asked for: one fetch of a line makes
// the neighboring words — the rest of an array, the anchor table, the
// next context slots — free. Lines travel as MFetchLine requests,
// which the nub truncates at the segment end, so readahead never
// manufactures errors that an exact fetch would not have hit.
const readahead = 256

// FetchInt reads a size-byte integer at addr in the given space. With
// the cache on, a hit costs nothing on the wire and a miss pulls a
// readahead line so neighboring fetches hit.
func (c *Client) FetchInt(space amem.Space, addr uint32, size int) (uint64, error) {
	m := Msg{Kind: MFetchInt, Space: byte(space), Addr: addr, Size: uint32(size)}
	if r, ok := c.serve(&m); ok {
		return r.Val, nil
	}
	if c.cache != nil && cacheable(space) && c.order != nil && size > 0 && size <= 4 {
		// Pull a line; if it comes up short (or the line base sits in an
		// unmapped hole) fall through to the exact fetch, which
		// preserves the uncached error behavior bit for bit.
		line := Msg{Kind: MFetchLine, Space: byte(space), Addr: addr &^ (readahead/2 - 1), Size: readahead}
		if c.send(&line).Err == nil {
			if v, ok := c.cache.serveInt(c.order, space, addr, size); ok {
				return v, nil
			}
		}
	}
	r := c.send(&m)
	return r.Val, r.Err
}

// StoreInt writes a size-byte integer, writing through the cache.
func (c *Client) StoreInt(space amem.Space, addr uint32, size int, val uint64) error {
	return c.send(&Msg{Kind: MStoreInt, Space: byte(space), Addr: addr, Size: uint32(size), Val: val}).Err
}

// FetchFloat reads a float of logical size 4, 8, or 10. Floats always
// go to the wire: the nub applies machine-dependent compensation (the
// big-endian MIPS word swap) that raw cached bytes would miss.
func (c *Client) FetchFloat(space amem.Space, addr uint32, size int) (float64, error) {
	r := c.send(&Msg{Kind: MFetchFloat, Space: byte(space), Addr: addr, Size: uint32(size)})
	return float64frombits(r.Val), r.Err
}

// StoreFloat writes a float of logical size 4, 8, or 10, evicting the
// cached bytes under it.
func (c *Client) StoreFloat(space amem.Space, addr uint32, size int, val float64) error {
	return c.send(&Msg{Kind: MStoreFloat, Space: byte(space), Addr: addr, Size: uint32(size), Val: float64bits(val)}).Err
}

// FetchBytes reads n raw bytes, through the cache when possible. The
// bytes are the caller's own.
func (c *Client) FetchBytes(space amem.Space, addr uint32, n int) ([]byte, error) {
	m := Msg{Kind: MFetchBytes, Space: byte(space), Addr: addr, Size: uint32(n)}
	r, ok := c.serve(&m)
	if !ok {
		r = c.send(&m)
	}
	return bytes.Clone(r.Data), r.Err
}

// Prefetch warms the cache with [addr, addr+n) in one round trip; with
// the cache off it is a no-op, so turning caching off never adds
// traffic. Callers use it to coalesce multi-word reads they know are
// coming — the context record after a stop, say.
func (c *Client) Prefetch(space amem.Space, addr uint32, n int) error {
	if c.cache == nil || !cacheable(space) || n <= 0 {
		return nil
	}
	if _, ok := c.cache.lookup(space, addr, n); ok {
		return nil
	}
	_, err := c.FetchBytes(space, addr, n)
	return err
}

// StoreBytes writes raw bytes, writing through the cache.
func (c *Client) StoreBytes(space amem.Space, addr uint32, data []byte) error {
	return c.send(&Msg{Kind: MStoreBytes, Space: byte(space), Addr: addr, Data: data}).Err
}

// PlantStore writes a breakpoint trap through the special planting
// store (§7.1), so the nub remembers the overwritten instruction.
func (c *Client) PlantStore(addr uint32, trap []byte) error {
	return c.send(&Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: addr, Data: trap}).Err
}

// UnplantStore removes a planted breakpoint, restoring the original
// instruction from the nub's record.
func (c *Client) UnplantStore(addr uint32) error {
	return c.send(&Msg{Kind: MUnplantStore, Space: byte(amem.Code), Addr: addr}).Err
}

// PlantedRecord is one breakpoint the nub knows about.
type PlantedRecord struct {
	Addr     uint32
	Original []byte
}

// ListPlanted asks the nub which breakpoints are planted — how a new
// debugger recovers the breakpoints of a lost one (§7.1).
func (c *Client) ListPlanted() ([]PlantedRecord, error) {
	rep, err := c.roundTrip(&Msg{Kind: MListPlanted})
	if err != nil {
		return nil, err
	}
	return parsePlanted(rep.Data)
}

// Metrics asks the endpoint for its counters, sorted by name: the
// nub and sim groups of the target, and the service group when the
// endpoint is a debug service.
func (c *Client) Metrics() ([]Metric, error) {
	rep, err := c.roundTrip(&Msg{Kind: MMetrics})
	if err != nil {
		return nil, err
	}
	return decodeMetrics(rep.Data)
}

// SimStats reads the target's simulator counters, the sim group of
// Metrics.
func (c *Client) SimStats() (SimStatsReport, error) {
	var r SimStatsReport
	ms, err := c.Metrics()
	fillMetrics(&r, "sim", ms)
	return r, err
}

// Sessions reports whether the connected endpoint is a debug service:
// its first welcome was a lobby.
func (c *Client) Sessions() bool { return c.sessionsOK }

// SessionID returns the service session this client is bound to, 0 when
// none (plain nub, or lobby before OpenSession).
func (c *Client) SessionID() uint64 { return c.sessionID }

// SessionProgram returns the registry name passed to OpenSession, ""
// when the session was not opened by this client.
func (c *Client) SessionProgram() string { return c.sessionProgram }

// OpenSession asks the debug service to spawn the named program and
// binds this connection — and every future reconnect — to the new
// session. It makes one exchange, never replayed: spawning is not
// idempotent, so a loss while awaiting the reply or the session's stop
// event must surface (gated on replayable for fault injectors) rather
// than replay and spawn twice.
func (c *Client) OpenSession(program string) (*Event, error) {
	if !c.sessionsOK {
		return nil, errors.New("nub: endpoint does not speak sessions")
	}
	// The replay gate exchange closes stays closed until the session's
	// stop event has been read.
	defer c.replayable.Store(true)
	rep, _, err := c.exchange(&Msg{Kind: MOpenSession, Data: []byte(program)})
	if err != nil {
		return nil, err
	}
	if err := c.adoptSession(rep, false); err != nil {
		return nil, err
	}
	c.sessionProgram = program
	c.InvalidateCache()
	return c.Last, nil
}

// AttachSession binds this connection to an existing service session by
// id, establishing the session's identity from the reply; id 0 binds
// the service's default session, whose real id SessionID then reports.
// Idempotent: connection loss mid-attach is ridden out by the normal
// reconnect path, which re-attaches by itself.
func (c *Client) AttachSession(id uint64) (*Event, error) {
	if !c.sessionsOK {
		return nil, errors.New("nub: endpoint does not speak sessions")
	}
	if err := c.attachWire(id, false); err != nil {
		return nil, err
	}
	c.InvalidateCache()
	return c.Last, nil
}

// CloseSession terminates the bound session and releases its pool slot.
// The connection survives; the client is back in the lobby.
func (c *Client) CloseSession() error {
	if c.sessionID == 0 {
		return errors.New("nub: no session bound")
	}
	if _, err := c.roundTrip(&Msg{Kind: MCloseSession, Val: c.sessionID}); err != nil {
		return err
	}
	c.sessionID, c.sessionProgram = 0, ""
	c.ArchName, c.CtxAddr, c.CtxSize = "", 0, 0
	c.order = nil
	c.InvalidateCache()
	return nil
}

// ServiceStats reads the debug service's health counters, the service
// group of Metrics; against a plain nub every counter reads zero.
func (c *Client) ServiceStats() (ServiceStatsReport, error) {
	var r ServiceStatsReport
	ms, err := c.Metrics()
	fillMetrics(&r, "service", ms)
	return r, err
}

// parsePlanted decodes an MPlanted payload: (addr32, len32, bytes)
// records, little-endian, sorted by address on the wire.
func parsePlanted(b []byte) ([]PlantedRecord, error) {
	out := []PlantedRecord{}
	for len(b) >= 8 {
		addr := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		n := int(uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24)
		b = b[8:]
		if n < 0 || n > len(b) {
			return nil, fmt.Errorf("nub: malformed planted list")
		}
		out = append(out, PlantedRecord{Addr: addr, Original: append([]byte(nil), b[:n]...)})
		b = b[n:]
	}
	return out, nil
}

// Continue resumes the target and blocks until the next event. The
// whole cache is invalidated first: once the target runs, no cached
// state may be trusted again.
//
// Connection loss follows the rule for every request that changes
// target state: a continue whose write never completed is replayed
// after reconnecting (the nub never resumed the target), but once the
// continue was delivered, a lost event wait surfaces the error — the
// reconnect handshake has already replayed the nub's latched event
// into Last, so the caller can resync from there.
func (c *Client) Continue() (*Event, error) {
	return c.resume(MContinue)
}

// StepInst resumes the target for exactly one instruction and blocks
// until its event: SIGTRAP with code arch.TrapStep when the instruction
// retired cleanly, or whatever fault it raised. This is the machine-
// level step that needs no symbol table. Connection-loss handling is
// Continue's.
func (c *Client) StepInst() (*Event, error) {
	return c.resume(MStepInst)
}

// resume sends a resume request (MContinue or MStepInst) and returns
// the event that answers it.
func (c *Client) resume(kind MsgKind) (*Event, error) {
	c.InvalidateCache()
	rep, err := c.roundTrip(&Msg{Kind: kind})
	if err != nil {
		return nil, err
	}
	c.Last = event(&rep)
	return c.Last, nil
}

// Ping asks the nub for a sign of life: a hello request answered with
// an OK. It touches no target state, so it is freely replayable after
// reconnects — a cheap way to probe a session that has been idle.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Msg{Kind: MHello})
	return err
}

// Close severs the connection without telling the nub — the way a
// crashed debugger disappears. The nub preserves target state.
func (c *Client) Close() error { return c.closeRaw() }

func (c *Client) closeRaw() error {
	if closer, ok := c.raw.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// Kill terminates the target.
func (c *Client) Kill() error {
	_, err := c.roundTrip(&Msg{Kind: MKill})
	return err
}

// Detach breaks the connection, leaving the target stopped and the nub
// waiting for a new debugger. The nub closes its end once it has
// answered, and so does the client: a request made after Detach then
// fails to write instead of landing in a dead connection, and is
// replayed after a reconnect like any request that never got out.
func (c *Client) Detach() error {
	if _, err := c.roundTrip(&Msg{Kind: MDetach}); err != nil {
		return err
	}
	c.closeRaw()
	return nil
}

// Wire is the abstract memory that holds the connection to the nub
// (§4.1): it forwards fetch and store requests over the protocol. Only
// the code and data spaces (and immediates) are served; register spaces
// are handled above the wire by alias memories.
type Wire struct {
	C *Client
}

// Name implements amem.Memory.
func (w *Wire) Name() string { return "wire" }

// FetchInt implements amem.Memory.
func (w *Wire) FetchInt(loc amem.Location, size int) (uint64, error) {
	if loc.Mode == amem.Immediate {
		return loc.Imm, nil
	}
	if !validSpace(byte(loc.Space)) {
		return 0, fmt.Errorf("%w: %s on the wire", amem.ErrBadSpace, loc)
	}
	return w.C.FetchInt(loc.Space, uint32(loc.Offset), size)
}

// StoreInt implements amem.Memory.
func (w *Wire) StoreInt(loc amem.Location, size int, val uint64) error {
	if loc.Mode == amem.Immediate {
		return amem.ErrImmStore
	}
	if !validSpace(byte(loc.Space)) {
		return fmt.Errorf("%w: %s on the wire", amem.ErrBadSpace, loc)
	}
	return w.C.StoreInt(loc.Space, uint32(loc.Offset), size, val)
}

// FetchFloat implements amem.Memory.
func (w *Wire) FetchFloat(loc amem.Location, size int) (float64, error) {
	if loc.Mode == amem.Immediate {
		return loc.ImmF, nil
	}
	if !validSpace(byte(loc.Space)) {
		return 0, fmt.Errorf("%w: %s on the wire", amem.ErrBadSpace, loc)
	}
	return w.C.FetchFloat(loc.Space, uint32(loc.Offset), size)
}

// StoreFloat implements amem.Memory.
func (w *Wire) StoreFloat(loc amem.Location, size int, val float64) error {
	if loc.Mode == amem.Immediate {
		return amem.ErrImmStore
	}
	if !validSpace(byte(loc.Space)) {
		return fmt.Errorf("%w: %s on the wire", amem.ErrBadSpace, loc)
	}
	return w.C.StoreFloat(loc.Space, uint32(loc.Offset), size, val)
}

// Pair wires a client directly to a nub over an in-memory connection —
// the "target process forked as a child" arrangement. It starts the
// target if it has not produced an event yet.
func Pair(n *Nub) (*Client, error) {
	a, b := net.Pipe()
	// Serve returns when the connection ends; in the paired arrangement
	// there is no one to reconnect.
	go func() { _ = n.Serve(b) }()
	return Connect(a)
}

// Launch builds a process for the architecture, attaches a nub, and
// returns a connected client: the complete "debugger forks the target"
// path used by tests and examples.
func Launch(a arch.Arch, text, data []byte, entry uint32) (*Client, *Nub, *machine.Process, error) {
	p := machine.New(a, text, data, entry)
	n := New(p)
	c, err := Pair(n)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, n, p, nil
}
