// The multi-session debug service: one endpoint, many targets. Hanson's
// follow-up ("A Machine-Independent Debugger—Revisited") reframes the
// nub as a server that outlives any single client; Service is that
// server. Connections are served concurrently, each in its own
// goroutine with its own panic containment; every connection is
// welcomed into a lobby, and session ids ride the wire
// (MOpenSession/MAttachSession); a target pool spawns simulated
// processes on demand from a registry of named programs and evicts the
// least recently used idle session under a configurable cap.
//
// The perf core is the shared decode cache: when a session leaves the
// pool, its predecoded instructions and superblocks are published to a
// machine.TextCache keyed by (arch, text content hash), and every later
// session debugging the same binary adopts them — a warm attach does
// zero decode work. Per-session generation counters keep breakpoint
// invalidation session-local (one user's breakpoint never slows
// another's fused run), and per-session statistics are plain atomic
// counters aggregated only when asked, so the request path takes no
// global mutex — only the bound session's own.
//
// The paper's single-target attach is the default session:
// MAttachSession with id 0 binds the session the service recorded as
// its default, by the ordinary attach path, and when no session has
// that id any more it opens the first registered program and records
// the new id. Nothing is spawned until such an attach arrives.
//
// Sessions are crash-only. Every pooled session auto-checkpoints at a
// configurable instruction interval and carries a compact log of the
// replayable inputs accepted since (stores, plants, resumes); there is
// no graceful teardown path that the correctness of anything depends
// on. Eviction passivates: the victim's checkpoint is serialized into a
// bounded in-service store (optionally spilled to disk), and a later
// MAttachSession to the evicted id resurrects it transparently —
// breakpoints, registers, memory, and the latched stop event included.
// A request that panics mid-flight rolls the session back to its last
// checkpoint and replays the log, so the client sees a retryable
// CodeRolledBack error instead of a corrupted target. MCloseSession is
// idempotent: closing a dead, unknown, or passivated session is a clean
// success, because the close's postcondition — the session is gone —
// already holds.
package nub

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ldb/internal/arch"
	"ldb/internal/machine"
)

// DefaultMaxSessions bounds the target pool when Service.MaxSessions is
// unset.
const DefaultMaxSessions = 256

// defaultAttachWait bounds how long an attach waits for a session whose
// previous connection has not yet noticed it is dead (a reconnecting
// client redials before the service's read on the old connection
// fails).
const defaultAttachWait = 2 * time.Second

// session is one pooled target: a nub plus the binding token that makes
// a connection the session's sole driver. The busy channel holds a
// token when the session is idle; binding takes it, unbinding returns
// it. lastUsed is the service clock at the last unbind — the LRU key —
// written only while the token is held, so the evictor (which acquires
// the token before reading) never races it.
//
// The checkpoint fields are likewise guarded by the token: the bound
// connection is the only writer, whether it mutates them between
// requests (logRequest, rollback) or from inside Run via the
// auto-checkpoint callback.
type session struct {
	id       uint64
	program  string
	nub      *Nub
	busy     chan struct{}
	lastUsed uint64

	// ck is the session's latest checkpoint, ckPending the stop event
	// that was latched when it was taken, and ckLog the replayable
	// inputs accepted since: ck + ckLog always reaches the current
	// state. replayLog/replayIdx are live only while a rollback walks
	// the log, so a mid-replay auto-checkpoint can rebase onto the
	// events that still remain; resumeCovered marks that the resume
	// request being served is already covered by a mid-run checkpoint's
	// EvResume and must not be logged a second time.
	ck            *machine.Checkpoint
	ckPending     *Msg
	ckLog         []machine.Event
	replayLog     []machine.Event
	replayIdx     int
	resumeCovered bool
}

// Service is a concurrent, session-multiplexed debug server.
type Service struct {
	// MaxSessions caps the pool; opening past it evicts the least
	// recently used idle session, and fails when none is idle. Zero
	// means DefaultMaxSessions.
	MaxSessions int
	// ReadTimeout is the per-connection slowloris bound, as Nub.ReadTimeout.
	ReadTimeout time.Duration
	// AttachWait bounds how long MAttachSession waits for a busy
	// session to come free. Zero means defaultAttachWait.
	AttachWait time.Duration
	// CheckpointInterval paces per-session auto-checkpoints, in
	// executed instructions. Zero means
	// machine.DefaultCheckpointInterval; negative disables checkpoints
	// entirely — and with them rollback, passivation, and resurrection.
	CheckpointInterval int64
	// PassivateDir, when set, spills passivated checkpoints to disk
	// (one session-<id>.ck file each), so a session can outlive both
	// the pool and the bounded in-memory store.
	PassivateDir string
	// FaultHook, when set, runs before dispatching a bound session's
	// request; returning true simulates a crash mid-request — the hook
	// may corrupt target state through n — and forces a rollback. The
	// request's Data is valid only during the call. Chaos tests inject
	// failures here; production leaves it nil.
	FaultHook func(id uint64, n *Nub, req *Msg) bool

	share *machine.TextCache

	// defMu serializes the default-session rule, so concurrent
	// attaches to id 0 bind one session. defaultID is the recorded
	// default session, first the program an id-0 attach opens.
	defMu     sync.Mutex //ldb:lock service.defMu 5
	defaultID uint64
	first     string

	mu       sync.Mutex //ldb:lock service.mu 10
	programs map[string]spawnSpec
	sessions map[uint64]*session
	nextID   uint64
	peak     int

	// passive stores the serialized checkpoints of evicted sessions,
	// keyed by session id; passiveSeq orders them for bounded-store
	// eviction. Guarded by mu.
	passive    map[uint64]*passiveRec
	passiveSeq uint64

	clock   atomic.Uint64
	opened  atomic.Int64
	evicted atomic.Int64
	// closedRequests accumulates the request counts of sessions that
	// have left the pool, so the aggregate survives eviction.
	closedRequests atomic.Int64
	// Crash-only lifecycle counters: sessions passivated on eviction,
	// sessions resurrected from a stored checkpoint, and per-request
	// rollbacks to the last checkpoint.
	passivated  atomic.Int64
	resurrected atomic.Int64
	rollbacks   atomic.Int64
	// Connections dropped by the read deadline or for an oversize
	// frame, whether or not a session was bound.
	slowReads atomic.Int64
	oversize  atomic.Int64

	lnMu     sync.Mutex //ldb:lock service.lnMu 40
	listener net.Listener
	closing  bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closeCh  chan struct{}
}

// spawnSpec is the stored form of a registered program.
type spawnSpec struct {
	arch  arch.Arch
	text  []byte
	data  []byte
	entry uint32
}

// passiveRec is one passivated session: its serialized checkpoint and
// its age in the bounded store.
type passiveRec struct {
	seq  uint64
	blob []byte
}

// maxPassivated bounds the in-service store of passivated session
// checkpoints; the oldest record is dropped past it.
const maxPassivated = 64

// maxCkLog bounds the replay log between checkpoints: past it the
// service takes a fresh checkpoint instead of letting rollback replay
// an unbounded tail.
const maxCkLog = 1024

// NewService returns an empty service with a fresh shared decode cache.
func NewService() *Service {
	return &Service{
		programs: make(map[string]spawnSpec),
		sessions: make(map[uint64]*session),
		passive:  make(map[uint64]*passiveRec),
		conns:    make(map[net.Conn]struct{}),
		closeCh:  make(chan struct{}),
		share:    machine.NewTextCache(),
	}
}

// Register adds a spawnable program to the service's registry under
// name. The images are referenced, not copied; callers must not mutate
// them afterwards.
func (s *Service) Register(name string, a arch.Arch, text, data []byte, entry uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programs[name] = spawnSpec{arch: a, text: text, data: data, entry: entry}
	if s.first == "" {
		s.first = name
	}
}

// SharedCache exposes the service's shared decode cache (for tests and
// embedders that pre-publish programs).
func (s *Service) SharedCache() *machine.TextCache { return s.share }

// Serve handles one connection to the debug service. The function is
// deliberately named Serve: the wireproto analyzer accepts a dispatch
// arm for a request kind only inside a function by that name, which
// keeps the session kinds' dispatch visible to the kind-table totality
// proof.
func (s *Service) Serve(conn net.Conn) (err error) {
	defer func() {
		// Per-session containment: a panic on this connection's
		// goroutine must not take down the service or any other
		// session. The nub's own dispatch already contains handler
		// panics; this guards the service layer itself.
		if r := recover(); r != nil {
			err = fmt.Errorf("nub: service connection panicked: %v", r)
		}
	}()
	var sess *session
	unbind := func() {
		if sess == nil {
			return
		}
		sess.lastUsed = s.clock.Add(1)
		sess.busy <- struct{}{}
		sess = nil
	}
	defer func() { unbind() }()

	// The connection's one codec: every reply is built in f's write
	// buffer and every request read into its read buffer.
	f := &framer{rw: conn}
	// The lobby welcome: no target, no event. The client proceeds to
	// MOpenSession or MAttachSession.
	if err := f.write(&Msg{Kind: MWelcome}); err != nil {
		return err
	}

	for {
		req, slow, rerr := readRequest(f, s.ReadTimeout)
		if slow {
			s.slowReads.Add(1)
		}
		if rerr != nil {
			if errors.Is(rerr, errOversize) {
				s.oversize.Add(1)
				_ = f.write(&Msg{Kind: MError, Data: []byte(rerr.Error())})
			}
			return rerr // connection broken; session state preserved
		}
		switch req.Kind {
		case MOpenSession:
			unbind()
			ns, rep := s.openSession(string(req.Data))
			if rep != nil {
				if err := f.write(rep); err != nil {
					return err
				}
				continue
			}
			if err := s.announce(f, ns); err != nil {
				// Nobody learned the new session's id: it must not stay
				// in the pool.
				s.kill(ns)
				s.remove(ns)
				return err
			}
			sess = ns
		case MAttachSession:
			unbind()
			var ns *session
			var rep *Msg
			if req.Val == 0 {
				ns, rep = s.attachDefault()
			} else {
				ns, rep = s.attachSession(req.Val)
			}
			if rep != nil {
				if err := f.write(rep); err != nil {
					return err
				}
				continue
			}
			sess = ns
			if err := s.announce(f, sess); err != nil {
				return err
			}
		case MCloseSession:
			// Idempotent by design: close means "make the session not
			// exist", and if it already does not — unknown id, already
			// closed, or passivated (Val names it) — the postcondition
			// holds and the answer is a clean MOK. A stored checkpoint
			// is dropped either way, so a closed session cannot
			// resurrect.
			if sess != nil {
				id := sess.id
				s.kill(sess)
				s.remove(sess)
				sess = nil
				s.dropPassivated(id)
			} else {
				s.dropPassivated(req.Val)
			}
			if err := f.write(&Msg{Kind: MOK}); err != nil {
				return err
			}
		case MMetrics:
			if err := f.write(s.metricsReply(sess)); err != nil {
				return err
			}
		default:
			if sess == nil {
				if err := f.write(errMsg("no session bound")); err != nil {
					return err
				}
				continue
			}
			n := sess.nub
			if h := s.FaultHook; h != nil && sess.ck != nil && h(sess.id, n, hookCopy(&req)) {
				// Injected crash: the hook may have corrupted target
				// state through n, exactly as a mid-request panic would.
				n.Stats.RecoveredPanics.Add(1)
				s.rollback(sess)
				if err := f.write(rolledBack(req.Kind)); err != nil {
					return err
				}
				continue
			}
			sess.resumeCovered = false
			// The reply is built in the write buffer before any of it
			// is written, so a dispatch that panicked — visible as a
			// RecoveredPanics bump — can be answered with a rollback
			// error instead of its contained-panic reply: the panic left
			// the target in an unknown state, and nothing of it may
			// reach the wire.
			var done bool
			n.mu.Lock()
			panics0 := n.Stats.RecoveredPanics.Load()
			f.out, done = n.serveOneLocked(f.out[:0], &req)
			rolled := sess.ck != nil && !done && n.Stats.RecoveredPanics.Load() != panics0
			n.mu.Unlock()
			if rolled {
				s.rollback(sess)
				if err := f.write(rolledBack(req.Kind)); err != nil {
					return err
				}
				continue
			}
			if done && s.dead(sess) {
				// MKill leaves the nub dead: drop the session — and any
				// checkpoint it was resurrected from — before
				// acknowledging, so an attach that follows the reply
				// finds it gone. MDetach leaves it stopped for a later
				// attach.
				s.remove(sess)
				s.dropPassivated(sess.id)
				sess = nil
			}
			if err := f.flush(); err != nil {
				return err
			}
			if done {
				return nil
			}
			s.logRequest(sess, &req)
		}
	}
}

// announce sends the MSession reply and the session's pending stop
// event — the session flavor of the single-target welcome handshake.
func (s *Service) announce(f *framer, sess *session) error {
	n := sess.nub
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.greetLocked(f, MSession, sess.id)
}

// openSession spawns the named program into a new session and returns
// it with its binding token held. A non-nil reply is the error to send
// instead.
func (s *Service) openSession(name string) (*session, *Msg) {
	s.mu.Lock()
	spec, ok := s.programs[name]
	s.mu.Unlock()
	if !ok {
		return nil, errMsg("unknown program %q", name)
	}
	// Build the target outside the pool lock: when many opens arrive at
	// once on a busy host, a holder descheduled mid-build stalls every
	// open queued behind it.
	p := machine.New(spec.arch, spec.text, spec.data, spec.entry)
	s.share.Adopt(p)
	n := New(p)
	// The binding token starts held: the opener is the first driver.
	sess := &session{program: name, nub: n, busy: make(chan struct{}, 1), replayIdx: -1}
	s.mu.Lock()
	if rep := s.makeRoomLocked(); rep != nil {
		s.mu.Unlock()
		return nil, rep
	}
	s.nextID++
	sess.id = s.nextID
	s.sessions[sess.id] = sess
	if len(s.sessions) > s.peak {
		s.peak = len(s.sessions)
	}
	s.mu.Unlock()
	s.opened.Add(1)
	n.Start()
	s.armCheckpoints(sess)
	return sess, nil
}

// makeRoomLocked evicts idle sessions (least recently used first) until
// the pool is under its cap, passivating each victim before it dies.
// Called with s.mu held; drops and retakes it around the eviction work.
// A non-nil reply is the error to send (the pool is full of bound
// sessions).
func (s *Service) makeRoomLocked() *Msg {
	cap := s.MaxSessions
	if cap <= 0 {
		cap = DefaultMaxSessions
	}
	for len(s.sessions) >= cap {
		victim := s.idleLRULocked()
		if victim == nil {
			return errMsg("service at capacity (%d sessions, none idle)", cap)
		}
		delete(s.sessions, victim.id)
		s.mu.Unlock()
		s.passivate(victim)
		s.kill(victim)
		s.retire(victim)
		s.evicted.Add(1)
		s.mu.Lock()
	}
	return nil
}

// idleLRULocked finds the least recently used idle session and takes
// its binding token, or returns nil when every session is bound.
// Callers hold s.mu.
func (s *Service) idleLRULocked() *session {
	var best *session
	for _, sess := range s.sessions {
		select {
		case <-sess.busy:
		default:
			continue
		}
		if best == nil || sess.lastUsed < best.lastUsed {
			if best != nil {
				best.busy <- struct{}{}
			}
			best = sess
		} else {
			sess.busy <- struct{}{}
		}
	}
	return best
}

// attachSession binds to the identified live session, waiting briefly
// for its token if a dying connection still holds it. A session that
// was evicted from the pool but passivated is resurrected transparently
// — the caller cannot tell it ever left.
func (s *Service) attachSession(id uint64) (*session, *Msg) {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return s.resurrect(id)
	}
	wait := s.AttachWait
	if wait <= 0 {
		wait = defaultAttachWait
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-sess.busy:
	case <-t.C:
		return nil, errMsg("session %d is busy", id)
	case <-s.closeCh:
		return nil, errMsg("service shutting down")
	}
	// The session may have been killed and removed while we waited.
	s.mu.Lock()
	live := s.sessions[id] == sess
	s.mu.Unlock()
	if !live {
		return nil, errMsg("no such session %d", id)
	}
	return sess, nil
}

// attachDefault binds the default session: the recorded default id by
// the ordinary attach path — live, busy, or passivated alike — or, when
// no session has that id any more, a fresh session of the first
// registered program, recorded as the new default. The attach runs
// outside defMu, so waiting for a busy default session holds up no
// other attach; a session that vanished during the wait sends the rule
// round again.
func (s *Service) attachDefault() (*session, *Msg) {
	for {
		s.defMu.Lock()
		id := s.defaultID
		if !s.exists(id) {
			s.mu.Lock()
			first := s.first
			s.mu.Unlock()
			sess, rep := s.openSession(first)
			if rep == nil {
				s.defaultID = sess.id
			}
			s.defMu.Unlock()
			return sess, rep
		}
		s.defMu.Unlock()
		if sess, rep := s.attachSession(id); rep == nil || s.exists(id) {
			return sess, rep
		}
	}
}

// exists reports whether session id is live or passivated, in memory or
// in the spill directory: whether an attach could bind it.
func (s *Service) exists(id uint64) bool {
	s.mu.Lock()
	ok := s.sessions[id] != nil || s.passive[id] != nil
	s.mu.Unlock()
	if !ok && s.PassivateDir != "" {
		_, err := os.Stat(passivePath(s.PassivateDir, id))
		ok = err == nil
	}
	return ok
}

// dead reports whether the session's target has terminated.
func (s *Service) dead(sess *session) bool {
	sess.nub.mu.Lock()
	defer sess.nub.mu.Unlock()
	return sess.nub.dead
}

// kill terminates a session's target. Callers hold its binding token.
func (s *Service) kill(sess *session) {
	n := sess.nub
	n.mu.Lock()
	n.dead = true
	n.P.State = machine.StateExited
	n.mu.Unlock()
}

// remove drops a session from the pool and retires it. Callers hold its
// binding token (which is never released again: the session is gone).
func (s *Service) remove(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.retire(sess)
}

// retire finalizes a session leaving the pool: its decode products are
// published to the shared cache — end of life is maximal warmth, and
// the first publisher of a content key wins — and its request count is
// folded into the service aggregate.
func (s *Service) retire(sess *session) {
	s.share.Publish(sess.nub.P)
	s.closedRequests.Add(sess.nub.Stats.RoundTrips.Load())
}

// passivate serializes an evicted session's checkpoint into the
// bounded passivated store (and the spill directory, if configured) so
// a later attach can resurrect it. Called with the victim's binding
// token held and its nub still alive; a dead target has nothing worth
// preserving.
func (s *Service) passivate(victim *session) {
	if s.CheckpointInterval < 0 {
		return
	}
	n := victim.nub
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return
	}
	ck := n.checkpointLocked()
	pend := cloneMsg(n.pending)
	n.mu.Unlock()
	blob := encodeCheckpoint(victim.program, ck, pend)
	s.mu.Lock()
	s.passiveSeq++
	s.passive[victim.id] = &passiveRec{seq: s.passiveSeq, blob: blob}
	for len(s.passive) > maxPassivated {
		var oldest *passiveRec
		var oldestID uint64
		for id, rec := range s.passive {
			if oldest == nil || rec.seq < oldest.seq {
				oldest, oldestID = rec, id
			}
		}
		delete(s.passive, oldestID)
	}
	s.mu.Unlock()
	if dir := s.PassivateDir; dir != "" {
		_ = os.WriteFile(passivePath(dir, victim.id), blob, 0o600)
	}
	s.passivated.Add(1)
}

// resurrect rebuilds a passivated session from its stored checkpoint
// and re-inserts it into the pool with the binding token held — the
// transparent half of crash-only eviction: attaching to an evicted
// session is indistinguishable from attaching to a live one.
func (s *Service) resurrect(id uint64) (*session, *Msg) {
	blob := s.takePassivated(id)
	if blob == nil {
		return nil, errMsg("no such session %d", id)
	}
	sc, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, errMsg("session %d: stored checkpoint corrupt: %v", id, err)
	}
	p, err := machine.FromCheckpoint(sc.ck)
	if err != nil {
		return nil, errMsg("session %d: %v", id, err)
	}
	s.share.Adopt(p)
	n := New(p)
	// The nub is not yet reachable from anywhere: restore its debug
	// state directly, no locks needed.
	n.planted = make(map[uint32][]byte, len(sc.ck.Planted))
	for addr, old := range sc.ck.Planted {
		n.planted[addr] = append([]byte(nil), old...)
	}
	n.pending = sc.pending
	sess := &session{id: id, program: sc.program, nub: n, busy: make(chan struct{}, 1), replayIdx: -1}
	s.mu.Lock()
	if s.sessions[id] != nil {
		// A concurrent attach resurrected it first; bind to that one.
		s.mu.Unlock()
		return s.attachSession(id)
	}
	if rep := s.makeRoomLocked(); rep != nil {
		s.mu.Unlock()
		return nil, rep
	}
	s.sessions[id] = sess
	if len(s.sessions) > s.peak {
		s.peak = len(s.sessions)
	}
	s.mu.Unlock()
	s.replay(sess, sc.ck.Events)
	s.armCheckpoints(sess)
	s.resurrected.Add(1)
	return sess, nil
}

// takePassivated removes and returns session id's stored checkpoint,
// falling back to the spill directory when the bounded in-memory store
// has already dropped it.
func (s *Service) takePassivated(id uint64) []byte {
	s.mu.Lock()
	rec := s.passive[id]
	delete(s.passive, id)
	s.mu.Unlock()
	if rec != nil {
		return rec.blob
	}
	if dir := s.PassivateDir; dir != "" {
		if blob, err := os.ReadFile(passivePath(dir, id)); err == nil {
			return blob
		}
	}
	return nil
}

// dropPassivated discards session id's stored checkpoint, memory and
// disk both — the close path's guarantee that a closed session stays
// closed.
func (s *Service) dropPassivated(id uint64) {
	s.mu.Lock()
	delete(s.passive, id)
	s.mu.Unlock()
	if dir := s.PassivateDir; dir != "" {
		_ = os.Remove(passivePath(dir, id))
	}
}

func passivePath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("session-%d.ck", id))
}

// PassivateIdle evicts up to max idle sessions (least recently used
// first), passivating each. It returns how many it evicted — the
// forcing lever chaos tests use to prove a session survives eviction
// mid-conversation.
func (s *Service) PassivateIdle(max int) int {
	evicted := 0
	for evicted < max {
		s.mu.Lock()
		victim := s.idleLRULocked()
		if victim == nil {
			s.mu.Unlock()
			break
		}
		delete(s.sessions, victim.id)
		s.mu.Unlock()
		s.passivate(victim)
		s.kill(victim)
		s.retire(victim)
		s.evicted.Add(1)
		evicted++
	}
	return evicted
}

// armCheckpoints turns on crash-only protection for a session: dirty
// tracking on every segment, the paced auto-checkpoint callback inside
// Run, and a baseline checkpoint so rollback is possible from the very
// first request. Called with the binding token held, after the target
// reached its first stop.
func (s *Service) armCheckpoints(sess *session) {
	every := s.CheckpointInterval
	if every < 0 {
		return
	}
	if every == 0 {
		every = machine.DefaultCheckpointInterval
	}
	p := sess.nub.P
	p.EnableCheckpoints()
	p.SetAutoCheckpoint(every, func() { s.autoCheckpoint(sess) })
	s.refreshCheckpoint(sess)
}

// refreshCheckpoint takes a fresh between-requests checkpoint and
// empties the event log.
func (s *Service) refreshCheckpoint(sess *session) {
	n := sess.nub
	n.mu.Lock()
	ck := n.checkpointLocked()
	pend := cloneMsg(n.pending)
	n.mu.Unlock()
	sess.ck, sess.ckPending, sess.ckLog = ck, pend, nil
}

// autoCheckpoint is the pacing callback Run fires every
// CheckpointInterval instructions. It runs with the nub's lock held,
// between fused blocks, with process state fully committed — so it
// forks the checkpoint directly and rebases the event log: a mid-run
// checkpoint is reached from itself by a bare resume (EvResume), plus
// whatever events were still outstanding if it fired mid-replay.
func (s *Service) autoCheckpoint(sess *session) {
	n := sess.nub
	ck := n.checkpointLocked()
	log := []machine.Event{{Kind: machine.EvResume}}
	if sess.replayIdx >= 0 && sess.replayIdx+1 <= len(sess.replayLog) {
		log = append(log, sess.replayLog[sess.replayIdx+1:]...)
	}
	sess.ck, sess.ckPending, sess.ckLog = ck, cloneMsg(n.pending), log
	sess.resumeCovered = true
}

// rollback rewinds a session to its last checkpoint and replays the
// logged inputs accepted since — the crash-only answer to a request
// that panicked mid-flight: the session returns to exactly the state
// the failed request saw, so the client may safely retry it.
func (s *Service) rollback(sess *session) {
	n := sess.nub
	events := sess.ckLog
	if err := n.RestoreCheckpoint(sess.ck, cloneMsg(sess.ckPending)); err != nil {
		// Unreachable today: the checkpoint came from this very
		// process. If the shape ever diverges, the session is
		// unsalvageable — kill it rather than serve corrupted state.
		s.kill(sess)
		return
	}
	s.replay(sess, events)
	s.rollbacks.Add(1)
}

// replay re-applies an event log through the nub's own handlers.
// replayLog/replayIdx are live during the walk so a mid-replay
// auto-checkpoint can rebase onto the events that still remain.
func (s *Service) replay(sess *session, events []machine.Event) {
	sess.replayLog = events
	for i := range events {
		sess.replayIdx = i
		sess.nub.ReplayEvent(events[i])
	}
	sess.replayLog, sess.replayIdx = nil, -1
}

// logRequest appends a served request's replayable mirror to the
// session's event log, refreshing the checkpoint when the log grows
// past maxCkLog. A resume an auto-checkpoint already covered with its
// EvResume is not logged a second time.
func (s *Service) logRequest(sess *session, req *Msg) {
	if sess.ck == nil {
		return
	}
	if sess.resumeCovered && (req.Kind == MContinue || req.Kind == MStepInst) {
		return
	}
	sess.ckLog = appendEvents(sess.ckLog, req)
	if len(sess.ckLog) > maxCkLog {
		s.refreshCheckpoint(sess)
	}
}

// appendEvents mirrors one request into replay events. Only mutating
// requests are logged — fetches and stats change nothing, and failed
// stores replay into the same failure, so logging unconditionally is
// still deterministic. Batch envelopes log their members.
func appendEvents(log []machine.Event, req *Msg) []machine.Event {
	if req.Kind != MBatch {
		return appendEvent(log, req)
	}
	if checkBatch(req) != nil {
		return log
	}
	for rest := req.Data; len(rest) > 0; {
		sub, n, _ := parseMsg(rest)
		log = appendEvent(log, &sub)
		rest = rest[n:]
	}
	return log
}

// appendEvent mirrors one request that is not an envelope. The event
// keeps its own copy of the request's payload.
func appendEvent(log []machine.Event, req *Msg) []machine.Event {
	switch req.Kind {
	case MStoreInt:
		return append(log, machine.Event{Kind: machine.EvStoreInt, Space: req.Space, Addr: req.Addr, Size: req.Size, Val: req.Val})
	case MStoreFloat:
		return append(log, machine.Event{Kind: machine.EvStoreFloat, Space: req.Space, Addr: req.Addr, Size: req.Size, Val: req.Val})
	case MStoreBytes:
		return append(log, machine.Event{Kind: machine.EvStoreBytes, Space: req.Space, Addr: req.Addr, Size: req.Size, Data: append([]byte(nil), req.Data...)})
	case MPlantStore:
		return append(log, machine.Event{Kind: machine.EvPlant, Space: req.Space, Addr: req.Addr, Size: req.Size, Data: append([]byte(nil), req.Data...)})
	case MUnplantStore:
		return append(log, machine.Event{Kind: machine.EvUnplant, Space: req.Space, Addr: req.Addr, Size: req.Size})
	case MContinue:
		return append(log, machine.Event{Kind: machine.EvContinue})
	case MStepInst:
		return append(log, machine.Event{Kind: machine.EvStep})
	default:
		// Fetches, stats, liveness probes: nothing to replay.
		return log
	}
}

// cloneMsg deep-copies a message so a checkpoint's pending event cannot
// alias a buffer a later request mutates.
func cloneMsg(m *Msg) *Msg {
	if m == nil {
		return nil
	}
	c := *m
	c.Data = append([]byte(nil), m.Data...)
	return &c
}

// hookCopy hands a fault hook its own copy of a request, which may
// escape: the request itself stays off the heap.
func hookCopy(req *Msg) *Msg {
	c := *req
	return &c
}

// rolledBack builds the retryable error reply for a crashed request.
func rolledBack(kind MsgKind) *Msg {
	return &Msg{
		Kind: MError,
		Code: CodeRolledBack,
		Data: []byte(fmt.Sprintf("nub: %v crashed mid-request; session rolled back to its last checkpoint", kind)),
	}
}

// metricsReply builds the MMetricsReply body: the bound session's nub
// and sim groups, read under its nub's lock, and the service group.
func (s *Service) metricsReply(sess *session) *Msg {
	var ms []Metric
	var bound int64
	if sess != nil {
		n := sess.nub
		n.mu.Lock()
		ms = n.appendMetricsLocked(ms)
		n.mu.Unlock()
		bound = n.Stats.RoundTrips.Load()
	}
	s.mu.Lock()
	live := int64(len(s.sessions))
	peak := int64(s.peak)
	var total int64
	for _, t := range s.sessions {
		total += t.nub.Stats.RoundTrips.Load()
	}
	s.mu.Unlock()
	total += s.closedRequests.Load()
	hits, misses := s.share.Stats()
	return &Msg{Kind: MMetricsReply, Data: encodeMetrics(appendMetrics(ms, "service", ServiceStatsReport{
		Live: live, Peak: peak, Evicted: s.evicted.Load(), Opened: s.opened.Load(),
		SharedHits: hits, SharedMisses: misses,
		SessionRequests: bound, TotalRequests: total,
		Passivated: s.passivated.Load(), Resurrected: s.resurrected.Load(),
		Rollbacks: s.rollbacks.Load(),
		SlowReads: s.slowReads.Load(), OversizeRejects: s.oversize.Load(),
	}))}
}

// Sessions reports how many sessions are live (for tests).
func (s *Service) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// ServeListener accepts connections until the listener closes or
// Shutdown is called, serving each on its own goroutine — the
// concurrent successor of Nub.ServeListener's one-at-a-time loop.
func (s *Service) ServeListener(l net.Listener) {
	s.lnMu.Lock()
	if s.closing {
		s.lnMu.Unlock()
		_ = l.Close()
		return
	}
	s.listener = l
	s.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.lnMu.Lock()
		if s.closing {
			s.lnMu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.lnMu.Unlock()
		go func() {
			defer s.wg.Done()
			_ = s.Serve(conn)
			_ = conn.Close()
			s.lnMu.Lock()
			delete(s.conns, conn)
			s.lnMu.Unlock()
		}()
	}
}

// Shutdown drains the service: the listener closes, every idle
// connection's read deadline is expired so its goroutine unblocks,
// in-flight requests finish and write their replies, and Shutdown
// returns only when every connection goroutine has exited. Session
// state is preserved — shutdown severs the endpoint, it does not kill
// targets.
func (s *Service) Shutdown() {
	s.lnMu.Lock()
	if !s.closing {
		s.closing = true
		close(s.closeCh)
	}
	l := s.listener
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.lnMu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	s.wg.Wait()
}
