package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"ldb/internal/core"
	"ldb/internal/nub"
	"ldb/internal/ps"
)

// recorder keeps each command's latency samples, in milliseconds, one
// slice per config.
type recorder struct {
	lat     [numCmds]perConfig
	session perConfig // whole sessions that ran to the end
}

func newRecorder(configs int) *recorder {
	r := &recorder{session: make(perConfig, configs)}
	for c := range r.lat {
		r.lat[c] = make(perConfig, configs)
	}
	return r
}

func (r *recorder) begin(*session, cmd) {}

func (r *recorder) end(s *session, c cmd, elapsed time.Duration) {
	r.lat[c][s.cfg] = append(r.lat[c][s.cfg], ms(elapsed))
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		for i := range r.lat[c] {
			r.lat[c][i] = append(r.lat[c][i], o.lat[c][i]...)
		}
	}
	for i := range r.session {
		r.session[i] = append(r.session[i], o.session[i]...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one traced interval. Spans of one session share its id as
// their root: a session span, the core calls under it, and the wire
// reads and writes under those.
type span struct {
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a session
	Kind   string `json:"kind"`   // session, startup, cmd, read, write
	Name   string `json:"name"`
	Config string `json:"config"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	Dur    int64  `json:"dur_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// maxSpans caps the spans kept in memory; past it wire spans are only
// added into their command's totals.
const maxSpans = 1 << 20

// cmdLayer totals one command's per-layer costs over its invocations.
type cmdLayer struct {
	n          int64
	span, wait time.Duration
	roundTrips int64
	bytes      int64
	allocs     int64
}

// tracer records spans and per-layer counters for the traced sessions
// of one client. It is confined to that client's goroutine.
type tracer struct {
	rec     *recorder // latencies of traced sessions
	configs []string
	epoch   time.Time
	spans   []span
	dropped int64

	sess    int32 // open session span
	open    int32 // open command span, -1 between commands
	wait    time.Duration
	st0     nub.StatsSnapshot
	allocs0 int64
	m0      counters
	temps   int64
	sess0   nub.StatsSnapshot

	allocSample []metrics.Sample

	// totals, per config where a latency is involved
	cmds        [][numCmds]cmdLayer
	startupMs   perConfig
	frames      int64
	exprLines   int64
	contInsns   int64
	contDecodes int64
	stepTemps   int64
	stepInvals  int64
	steps       int64
	decodes     int64
	blocks      int64
	blockInsns  int64
	wire        nub.StatsSnapshot // summed per-session deltas
	svcRequests int64
	sessions    int64

	stopCount []int64 // stopping points per config, for bpt.step.temps
}

func newTracer(configs []string, epoch time.Time, stopCount []int64) *tracer {
	return &tracer{
		rec:         newRecorder(len(configs)),
		configs:     configs,
		epoch:       epoch,
		open:        -1,
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
		cmds:        make([][numCmds]cmdLayer, len(configs)),
		startupMs:   make(perConfig, len(configs)),
		stopCount:   stopCount,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) heapAllocs() int64 {
	metrics.Read(t.allocSample)
	return int64(t.allocSample[0].Value.Uint64())
}

func (t *tracer) add(sp span) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, sp)
	return int32(len(t.spans) - 1)
}

// beginSession opens a session span.
func (t *tracer) beginSession(s *session) {
	t.sess = t.add(span{Parent: -1, Kind: "session", Config: t.configs[s.cfg], Start: t.now()})
	t.sess0 = nub.StatsSnapshot{}
	if l, ok := s.link.(*tcpLink); ok {
		t.sess0 = l.c.Stats()
	}
}

func (t *tracer) endSession() {
	if t.sess >= 0 {
		sp := &t.spans[t.sess]
		sp.Dur = t.now() - sp.Start
	}
	t.sess = -1
}

// startup records the debugger's construction (core.New: the prelude
// and the architecture dictionaries).
func (t *tracer) startup(s *session, start time.Time, elapsed time.Duration) {
	t.add(span{Parent: t.sess, Kind: "startup", Name: "core.New", Config: t.configs[s.cfg],
		Start: int64(start.Sub(t.epoch)), Dur: int64(elapsed)})
	t.startupMs[s.cfg] = append(t.startupMs[s.cfg], ms(elapsed))
}

// attached installs the expression-server traffic counter; it must run
// before the target's first Eval.
func (t *tracer) attached(s *session) {
	s.tgt.TraceExprTraffic(func(dir, line string) {
		t.exprLines += int64(strings.Count(line, "\n"))
	})
}

func clientStats(s *session) nub.StatsSnapshot {
	if s.tgt != nil {
		return s.tgt.Client.Stats()
	}
	if l, ok := s.link.(*tcpLink); ok {
		return l.c.Stats()
	}
	return nub.StatsSnapshot{} // in-process attach: the client is new
}

func (t *tracer) begin(s *session, c cmd) {
	switch c {
	case cmdContinue, cmdStep:
		// Over TCP this is a round trip of its own; it runs before the
		// command span opens, so its wire time is the session's.
		m, err := s.link.counters()
		s.fail(err)
		t.m0 = m
		if c == cmdStep {
			t.temps = t.stopCount[s.cfg] - int64(len(s.tgt.Bpts.Addrs()))
		}
	}
	t.st0 = clientStats(s)
	t.open = t.add(span{Parent: t.sess, Kind: "cmd", Name: cmdNames[c], Config: t.configs[s.cfg], Start: t.now()})
	t.wait = 0
	t.allocs0 = t.heapAllocs()
}

func (t *tracer) end(s *session, c cmd, elapsed time.Duration) {
	allocs := t.heapAllocs() - t.allocs0
	if t.open >= 0 {
		t.spans[t.open].Dur = int64(elapsed)
	}
	t.open = -1
	st := clientStats(s)
	l := &t.cmds[s.cfg][c]
	l.n++
	l.span += elapsed
	l.wait += t.wait
	l.roundTrips += st.RoundTrips - t.st0.RoundTrips
	l.bytes += st.BytesSent + st.BytesReceived - t.st0.BytesSent - t.st0.BytesReceived
	l.allocs += allocs
	switch c {
	case cmdContinue, cmdStep:
		m, err := s.link.counters()
		s.fail(err)
		if c == cmdContinue {
			t.contInsns += m.steps - t.m0.steps
			t.contDecodes += m.decodes - t.m0.decodes
		} else {
			t.stepTemps += t.temps
			t.stepInvals += m.invalidations - t.m0.invalidations
		}
	}
	t.rec.end(s, c, elapsed)
}

// wireOp records one read or write on the nub connection.
func (t *tracer) wireOp(kind string, start time.Time, elapsed time.Duration, n int) {
	parent := t.sess
	if t.open >= 0 {
		parent = t.open
		t.wait += elapsed
	}
	t.add(span{Parent: parent, Kind: kind, Start: int64(start.Sub(t.epoch)), Dur: int64(elapsed), Bytes: n})
}

// closing reads the session's totals before its target goes away.
func (t *tracer) closing(s *session) {
	m, err := s.link.counters()
	s.fail(err)
	t.steps += m.steps
	t.decodes += m.decodes
	t.blocks += m.blocks
	t.blockInsns += m.blockInsns
	st := s.tgt.Client.Stats()
	t.wire.Batches += st.Batches - t.sess0.Batches
	t.wire.BatchedMsgs += st.BatchedMsgs - t.sess0.BatchedMsgs
	t.wire.CacheHits += st.CacheHits - t.sess0.CacheHits
	t.wire.CacheMisses += st.CacheMisses - t.sess0.CacheMisses
	t.wire.Replays += st.Replays - t.sess0.Replays
	if _, ok := s.link.(*tcpLink); ok {
		svc, err := s.tgt.Client.ServiceStats()
		s.fail(err)
		t.svcRequests += svc.SessionRequests
	}
	t.sessions++
}

// merge adds o's totals into t (spans are kept per tracer).
func (t *tracer) merge(o *tracer) {
	t.rec.merge(o.rec)
	for i := range t.cmds {
		for c := range t.cmds[i] {
			a, b := &t.cmds[i][c], o.cmds[i][c]
			a.n += b.n
			a.span += b.span
			a.wait += b.wait
			a.roundTrips += b.roundTrips
			a.bytes += b.bytes
			a.allocs += b.allocs
		}
		t.startupMs[i] = append(t.startupMs[i], o.startupMs[i]...)
	}
	t.frames += o.frames
	t.exprLines += o.exprLines
	t.contInsns += o.contInsns
	t.contDecodes += o.contDecodes
	t.stepTemps += o.stepTemps
	t.stepInvals += o.stepInvals
	t.steps += o.steps
	t.decodes += o.decodes
	t.blocks += o.blocks
	t.blockInsns += o.blockInsns
	t.wire.Batches += o.wire.Batches
	t.wire.BatchedMsgs += o.wire.BatchedMsgs
	t.wire.CacheHits += o.wire.CacheHits
	t.wire.CacheMisses += o.wire.CacheMisses
	t.wire.Replays += o.wire.Replays
	t.svcRequests += o.svcRequests
	t.sessions += o.sessions
	t.dropped += o.dropped
}

// writeSpans writes every tracer's spans as JSON lines, one client
// after another; parent indexes refer to the client's own spans.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, t := range tracers {
		for _, sp := range t.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{i, sp}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tableProcs lists the procedure entries of a target's symbol table.
func tableProcs(t *core.Target) []string {
	procs, ok := t.Table.Top.GetName("procs")
	if !ok || procs.Kind != ps.KArray {
		return nil
	}
	var out []string
	for _, p := range procs.A.E {
		if p.Kind == ps.KName || p.Kind == ps.KString {
			out = append(out, p.S)
		}
	}
	return out
}

// wireConn times every read and write on a nub connection. It embeds
// net.Conn so the client keeps its SetDeadline path; a bare
// io.ReadWriter would switch it to the watchdog fallback and measure a
// different program.
type wireConn struct {
	net.Conn
	t *tracer
}

func (w *wireConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.Conn.Read(p)
	w.t.wireOp("read", t0, time.Since(t0), n)
	return n, err
}

func (w *wireConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.Conn.Write(p)
	w.t.wireOp("write", t0, time.Since(t0), n)
	return n, err
}

// stopCount counts a program's stopping points: the temporaries a
// source-level step plants, less the breakpoints already set.
func stopCount(t *core.Target) (int64, error) {
	var n int64
	for _, p := range tableProcs(t) {
		info, err := t.Table.ProcInfo(p)
		if err != nil {
			continue
		}
		stops, err := t.Table.Loci(info)
		if err != nil {
			return 0, err
		}
		n += int64(len(stops))
	}
	return n, nil
}
