// Command e2ebench measures ldb's debugger commands end to end: attach,
// break, continue, print, eval, where and step, as a user issues them,
// on all five arch configs, through the public core and nub APIs.
//
//	bash e2ebench/run.sh --workload fib --seed 1 --seconds 25 --trace 0
//
// Workloads (see workloads below): fib (the Fig. 1 program), lcc (the
// 13,000-line stand-in for lcc), step (source-level stepping on a
// 500-line program) and service (queens over the TCP debug service,
// two closed-loop clients). Every latency is taken per config over one
// population and combined by geometric mean across the configs.
//
// With --trace 0 the last line of output is a JSON object carrying the
// end-to-end metrics, the same set on every workload; with --trace 1
// every other session is traced (spans from the benchmark's own calls
// into core, a timing wrapper on the nub connection, and the layers'
// public counters) and the object carries the per-layer metrics
// instead. The lines before it name the run's environment, sample
// counts, the step median, tail percentiles and, when traced, the
// paper's §7 startup rows.
//
// Seed 1 is the default; seed 1992 is held out for confirming claims.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
	"ldb/internal/driver"
	"ldb/internal/nub"
	"ldb/internal/ps"
	"ldb/internal/symtab"
	"ldb/internal/workload"
)

// configs are the five arch configs; the seed rotates their order.
var configs = []string{"mips", "mipsbe", "sparc", "m68k", "vax"}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// e2eCmds are the commands every workload issues; their medians are
// end-to-end metrics. step is left out because lcc cannot issue it (one
// step takes about 14 s at 13,000 lines); its median is printed as a
// note with the tails.
var e2eCmds = []cmd{cmdAttach, cmdBreak, cmdContinue, cmdPrint, cmdEval, cmdWhere}

// tailQs are the tail percentiles tried, highest first. A command's
// tail, printed as a note, is the highest that leaves minTail samples
// beyond it in every config. Tails are not end-to-end metrics: the
// host's bursts of millisecond stalls move them far more than the
// medians (fib's p98 more than doubled in runs whose medians moved 8%),
// and lcc's runs are too short to support any.
var tailQs = []float64{0.999, 0.99, 0.98, 0.95, 0.90}

// heapAfter is how many timed sessions per config complete before the
// live heap is measured. Measuring at a fixed session count keeps
// per-session growth (every expression-evaluating target leaks its
// expression-server goroutine) from making the figure track host speed.
const heapAfter = 10

// workloadDef is one benchmark workload: a program and the debugging
// script every session runs on it. The script's proc argument is the
// seed-chosen work<k> procedure it breaks in (lcc and step only).
type workloadDef struct {
	source  func() string
	service bool   // sessions go through the TCP debug service
	output  string // expected program output, "" if only cross-config agreement is checked
	script  func(s *session, proc string)
	// pickFrom is how many of the program's last work<k> procedures the
	// seed chooses among, 0 when the script does not depend on it.
	pickFrom int
}

var workloads = map[string]workloadDef{
	// Per-command debugger overhead on a tiny program: 13 simulated
	// instructions per continue, a few dozen stopping points.
	"fib": {
		source: func() string { return workload.Fib },
		output: workload.Outputs["fib"],
		script: func(s *session, _ string) {
			s.attach()
			s.breakStop("fib", 7)
			for hit := 0; hit < 8; hit++ {
				s.cont()
				s.print("a")
				s.eval("a[i-1] + a[i-2]")
				s.where()
				s.step()
			}
			s.finish()
		},
	},
	// Symbol-table reading (most of attach) and cold decoding (the
	// continue) on §7's 13,000-line stand-in for lcc.
	"lcc": {
		source:   func() string { return workload.Big(13000) },
		pickFrom: 16,
		script: func(s *session, proc string) {
			s.attach()
			s.breakProc(proc)
			s.cont()
			s.print("x")
			s.eval("x * y + 1")
			s.where()
			s.kill()
		},
	},
	// Source-level step plants a temporary breakpoint at every stopping
	// point: the write-heavy use of bpt, the client cache and the
	// simulator's text invalidation.
	"step": {
		source:   func() string { return workload.Big(500) },
		pickFrom: 4,
		script: func(s *session, proc string) {
			s.attach()
			s.breakProc(proc)
			s.cont()
			for i := 0; i < 6; i++ {
				s.step()
				s.print("total")
				s.eval("x * y + 1")
				s.where()
			}
			s.finish()
		},
	},
	// The TCP debug service: session pool, shared decode cache,
	// checkpoint pacing, and a simulation-heavy program.
	"service": {
		source:  func() string { return workload.Queens },
		service: true,
		output:  workload.Outputs["queens"],
		script: func(s *session, _ string) {
			s.attach()
			s.breakStop("place", 2)
			for hit := 0; hit < 8; hit++ {
				s.cont()
				s.print("cols")
				s.eval("r + 1")
				s.where()
				s.step()
			}
			s.finish()
		},
	},
}

// mix is splitmix64: it spreads consecutive seeds across the choices.
func mix(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func main() {
	name := flag.String("workload", "fib", "workload: fib, lcc, step or service")
	seed := flag.Int64("seed", 1, "workload seed (config rotation and breakpoint choice)")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 traces every other session and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, w workloadDef, seed int64, seconds int, traced bool) error {
	h := mix(seed)
	order := make([]string, len(configs))
	for i := range configs {
		order[i] = configs[(i+int(h%uint64(len(configs))))%len(configs)]
	}
	src := w.source()
	proc := ""
	if w.pickFrom > 0 {
		n := strings.Count(src, "\nint work")
		proc = fmt.Sprintf("work%d", n-w.pickFrom+int(h/uint64(len(configs))%uint64(w.pickFrom)))
	}
	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("config order: %s", strings.Join(order, " "))
	if proc != "" {
		fmt.Printf("; breakpoint procedure: %s", proc)
	}
	fmt.Println()

	var b *bench
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.shutdown()
		}
		t0 := time.Now()
		var err error
		b, err = setup(name, w, order, src, proc, traced)
		if err != nil {
			if b != nil {
				b.shutdown()
			}
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res, err := b.timed(time.Duration(seconds) * time.Second)
	b.shutdown()
	if err != nil {
		return fmt.Errorf("service stats: %w", err)
	}

	rep := &report{}
	if traced {
		if err := b.perLayer(rep, res, ".bench_build/spans-"+name+".jsonl"); err != nil {
			return err
		}
	} else if err := b.endToEnd(rep, res, quantile(setupS, 0.5)); err != nil {
		return err
	}
	rep.print(res)
	return nil
}

// bench is one set-up workload, ready to time.
type bench struct {
	name    string
	w       workloadDef
	order   []string
	proc    string
	traced  bool
	progs   []*driver.Program
	buildMs []float64
	ref     string // the transcript every session must reproduce
	stops   []int64

	svc     *nub.Service
	svcDone chan struct{}
	conns   []net.Conn
	clients []*client
}

// client is one closed-loop debugger. Over TCP it owns a connection
// (two when traced: a plain one and a wrapped one).
type client struct {
	plain, wrapped *nub.Client
	rec            *recorder
	tr             *tracer
	attempted, ok  int
	completed      int
	errs           []string
}

func setup(name string, w workloadDef, order []string, src, proc string, traced bool) (*bench, error) {
	b := &bench{name: name, w: w, order: order, proc: proc, traced: traced}
	for _, name := range order {
		t0 := time.Now()
		prog, err := driver.Build([]driver.Source{{Name: "prog.c", Text: src}}, driver.Options{Arch: name, Debug: true})
		if err != nil {
			return b, fmt.Errorf("build %s: %w", name, err)
		}
		b.buildMs = append(b.buildMs, ms(time.Since(t0)))
		// Keep only what sessions use, so live_heap_mb is the debugger's.
		prog.Units, prog.Objs, prog.SymtabPS = nil, nil, ""
		b.progs = append(b.progs, prog)
	}
	// The untimed warm-up: one in-process session per config. Their
	// transcripts must agree, and become the reference.
	discard := newRecorder(len(order))
	for i := range order {
		s := b.newSession(i, discard, &pipeLink{prog: b.progs[i]})
		got, err := s.close()
		if err != nil {
			return b, fmt.Errorf("warm-up on %s: %w", order[i], err)
		}
		if i == 0 {
			b.ref = got
		} else if got != b.ref {
			return b, fmt.Errorf("warm-up transcripts differ:\n%s:\n%s%s:\n%s", order[0], b.ref, order[i], got)
		}
		if traced {
			n, err := stopCount(s.tgt)
			if err != nil {
				return b, err
			}
			b.stops = append(b.stops, n)
		}
	}
	if w.output != "" && !strings.Contains(b.ref, fmt.Sprintf("output %q\n", w.output)) {
		return b, fmt.Errorf("program output is wrong:\n%s", b.ref)
	}
	nclients := 1
	if w.service {
		nclients = min(2, runtime.GOMAXPROCS(0))
	}
	for i := 0; i < nclients; i++ {
		c := &client{rec: newRecorder(len(order))}
		if traced {
			c.tr = newTracer(order, time.Now(), b.stops)
		}
		b.clients = append(b.clients, c)
	}
	if w.service {
		if err := b.startService(); err != nil {
			return b, err
		}
		// Warm the service too: one session per config, so the shared
		// decode cache is warm before timing.
		for i := range order {
			s := b.newSession(i, discard, &tcpLink{c: b.clients[0].plain, program: order[i]})
			got, err := s.close()
			if err != nil {
				return b, fmt.Errorf("service warm-up on %s: %w", order[i], err)
			}
			if got != b.expected() {
				return b, fmt.Errorf("service transcript differs from in-process:\n%s\nwant:\n%s", got, b.expected())
			}
		}
	}
	runtime.GC()
	return b, nil
}

// expected is the transcript a session must produce: over TCP the
// program's output is not visible, so its line is dropped.
func (b *bench) expected() string {
	if !b.w.service {
		return b.ref
	}
	var out []string
	for _, l := range strings.SplitAfter(b.ref, "\n") {
		if !strings.HasPrefix(l, "output ") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "")
}

// startService serves every config's program from one TCP debug
// service and connects each client to it: a plain connection, and when
// traced a wrapped one for the traced sessions.
func (b *bench) startService() error {
	b.svc = nub.NewService()
	for i, name := range b.order {
		img := b.progs[i].Image
		b.svc.Register(name, b.progs[i].Arch, img.Text, img.Data, img.Entry)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.svcDone = make(chan struct{})
	go func() {
		defer close(b.svcDone)
		b.svc.ServeListener(ln)
	}()
	dial := func(wrap *tracer) (*nub.Client, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		b.conns = append(b.conns, conn)
		if wrap != nil {
			return nub.Connect(&wireConn{Conn: conn, t: wrap})
		}
		return nub.Connect(conn)
	}
	for _, c := range b.clients {
		if c.plain, err = dial(nil); err != nil {
			return err
		}
		if c.tr != nil {
			if c.wrapped, err = dial(c.tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// shutdown stops the service and closes every connection, waiting for
// the service's goroutines to end.
func (b *bench) shutdown() {
	for _, c := range b.conns {
		c.Close()
	}
	if b.svc != nil {
		b.svc.Shutdown()
		<-b.svcDone
		b.svc = nil
	}
}

func (b *bench) newSession(cfg int, obs observer, l link) *session {
	s := &session{cfg: cfg, prog: b.progs[cfg], link: l, obs: obs}
	if t, ok := obs.(*tracer); ok {
		t.beginSession(s)
	}
	b.w.script(s, b.proc)
	return s
}

// result is what the timed phase measured.
type result struct {
	elapsed   time.Duration
	rec       *recorder // untraced sessions
	tr        *tracer   // traced sessions, merged across clients
	tracers   []*tracer
	attempted int
	ok        int
	completed int
	errs      []string
	liveHeap  uint64
	heapAt    int64                     // completed sessions when liveHeap was measured
	svcStats  [2]nub.ServiceStatsReport // before and after, service only
}

// measureHeap forces a collection and records the live heap.
func (res *result) measureHeap(sessions int64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.liveHeap, res.heapAt = m.HeapAlloc, sessions
}

// timed runs closed-loop sessions on every client until d has passed,
// each client cycling through the configs from its own offset.
func (b *bench) timed(d time.Duration) (*result, error) {
	res := &result{}
	if b.svc != nil {
		var err error
		if res.svcStats[0], err = b.clients[0].plain.ServiceStats(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	start := time.Now()
	deadline := start.Add(d)
	var done atomic.Int64 // sessions completed, across clients
	heapAt := int64(heapAfter * len(b.order))
	// The live heap is measured once, with every client between
	// sessions, so that no target is half built or half torn down. Each
	// client pauses exactly once: when heapAt sessions have completed, or
	// on leaving the loop if that never happens.
	var heapWait sync.WaitGroup
	heapWait.Add(len(b.clients))
	var heapOnce sync.Once
	pause := func() {
		heapWait.Done()
		heapWait.Wait()
		heapOnce.Do(func() { res.measureHeap(done.Load()) })
	}
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			want := b.expected()
			paused := false
			for i := 0; time.Now().Before(deadline); i++ {
				if !paused && done.Load() >= heapAt {
					paused = true
					pause()
				}
				cfg := (i + ci*len(b.order)/len(b.clients)) % len(b.order)
				trace := b.traced && i%2 == 0
				rec, obs := c.rec, observer(c.rec)
				if trace {
					rec, obs = c.tr.rec, c.tr
				}
				var l link
				switch {
				case b.svc == nil && trace:
					l = &pipeLink{prog: b.progs[cfg], tr: c.tr}
				case b.svc == nil:
					l = &pipeLink{prog: b.progs[cfg]}
				case trace:
					l = &tcpLink{c: c.wrapped, program: b.order[cfg]}
				default:
					l = &tcpLink{c: c.plain, program: b.order[cfg]}
				}
				c.attempted++
				t0 := time.Now()
				s := b.newSession(cfg, obs, l)
				got, err := s.close()
				if err != nil {
					c.errs = append(c.errs, fmt.Sprintf("%s: %v", b.order[cfg], err))
					continue
				}
				rec.session[cfg] = append(rec.session[cfg], ms(time.Since(t0)))
				c.completed++
				if got == want {
					c.ok++
				} else {
					c.errs = append(c.errs, fmt.Sprintf("%s: transcript differs:\n%s", b.order[cfg], got))
				}
				done.Add(1)
			}
			if !paused {
				pause()
			}
		}(ci, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if b.svc != nil {
		var err error
		if res.svcStats[1], err = b.clients[0].plain.ServiceStats(); err != nil {
			return nil, err
		}
	}
	res.rec = newRecorder(len(b.order))
	for _, c := range b.clients {
		res.rec.merge(c.rec)
		res.attempted += c.attempted
		res.ok += c.ok
		res.completed += c.completed
		res.errs = append(res.errs, c.errs...)
		if c.tr != nil {
			res.tracers = append(res.tracers, c.tr)
			if res.tr == nil {
				res.tr = newTracer(b.order, c.tr.epoch, b.stops)
			}
			res.tr.merge(c.tr)
		}
	}
	return res, nil
}

// report collects metrics in output order.
type report struct {
	names  []string
	values map[string]metric
	notes  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) add(name string, v float64, unit string) {
	if r.values == nil {
		r.values = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.values[name] = metric{v, unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(res *result) {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for i, e := range res.errs {
		if i == 5 {
			fmt.Printf("... and %d more failed sessions\n", len(res.errs)-i)
			break
		}
		fmt.Println("failed session:", e)
	}
	for _, n := range r.names {
		fmt.Printf("%-34s %14.6f %s\n", n, r.values[n].Value, r.values[n].Unit)
	}
	correct := res.attempted > 0 && res.ok == res.attempted
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(res.attempted, 1), res.attempted - res.ok, r.values})
	if err != nil {
		panic(err) // only finite floats and strings reach it
	}
	fmt.Println(string(line))
}

// sampleNote lists the per-config sample counts of each command.
func (b *bench) sampleNote(r *report, rec *recorder, label string) {
	var parts []string
	for c := cmd(0); c < numCmds; c++ {
		lo, hi := rec.lat[c].counts()
		if hi == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %d-%d", cmdNames[c], lo, hi))
	}
	r.note("%s samples per config: %s", label, strings.Join(parts, ", "))
}

// endToEnd reports the end-to-end metrics. Every workload reports the
// same set; a run that cannot fails instead of printing a partial one.
func (b *bench) endToEnd(r *report, res *result, setupS float64) error {
	b.sampleNote(r, res.rec, "untraced")
	r.add("setup_s", setupS, "s")
	for _, c := range e2eCmds {
		v, ok := res.rec.lat[c].p50()
		if !ok {
			return fmt.Errorf("no %s sample in some config", cmdNames[c])
		}
		r.add(cmdNames[c]+"_ms_p50", v, "ms")
	}
	if v, ok := res.rec.lat[cmdStep].p50(); ok {
		r.note("note: step_ms_p50 %.6f ms", v)
	}
	for c := cmd(0); c < numCmds; c++ {
		for _, q := range tailQs {
			if v, beyond := res.rec.lat[c].tail(q); beyond >= minTail {
				r.note("note: %s_ms_tail %.6f ms (p%g, %d samples beyond it)", cmdNames[c], v, 100*q, beyond)
				break
			}
		}
	}
	// The closed loop's rate at the median session time: each client
	// completes one session per session time. The count over the phase
	// (noted) also carries the host's stalls.
	v, ok := res.rec.session.p50()
	if !ok {
		return fmt.Errorf("no completed session in some config")
	}
	r.add("sessions_per_s", float64(len(b.clients))*1000/v, "1/s")
	r.note("completed sessions: %d in %.3f s (%.3f/s)", res.completed, res.elapsed.Seconds(), float64(res.completed)/res.elapsed.Seconds())
	r.note("live heap measured after %d timed sessions", res.heapAt)
	r.add("ok_frac", float64(res.ok)/float64(max(res.attempted, 1)), "ratio")
	r.add("live_heap_mb", float64(res.liveHeap)/(1<<20), "MiB")
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer reports the traced run: per-layer metrics, the tracing
// overhead, and the §7 startup rows this workload measures.
func (b *bench) perLayer(r *report, res *result, spanFile string) error {
	t := res.tr
	b.sampleNote(r, res.rec, "untraced")
	b.sampleNote(r, t.rec, "traced")

	// Symbol-table reading on a fresh interpreter, three times per config.
	var loadMs, loaderKB []float64
	for _, prog := range b.progs {
		var xs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := symtab.Load(ps.New(), prog.LoaderPS); err != nil {
				return err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		loadMs = append(loadMs, quantile(xs, 0.5))
		loaderKB = append(loaderKB, float64(len(prog.LoaderPS))/1024)
	}
	r.add("symtab.load_ms", geomean(loadMs), "ms")
	r.add("symtab.loader_kb", geomean(loaderKB), "KiB")
	startup, _ := t.startupMs.p50()
	r.add("ps.startup_ms", startup, "ms")

	// Per command: means per invocation, per config, averaged over the
	// configs. Means keep the accounting additive: self + wait = span.
	perCmd := func(c cmd, f func(l cmdLayer) float64) float64 {
		sum, n := 0.0, 0
		for i := range t.cmds {
			if l := t.cmds[i][c]; l.n > 0 {
				sum += f(l) / float64(l.n)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	for c := cmd(0); c < numCmds; c++ {
		span := perCmd(c, func(l cmdLayer) float64 { return ms(l.span) })
		wait := perCmd(c, func(l cmdLayer) float64 { return ms(l.wait) })
		self := perCmd(c, func(l cmdLayer) float64 { return ms(l.span - l.wait) })
		if math.Abs(self+wait-span) > 1e-6*max(span, 1) {
			return fmt.Errorf("accounting does not close for %s: self %.6f + wait %.6f != span %.6f", cmdNames[c], self, wait, span)
		}
		name := cmdNames[c]
		r.add("nub."+name+".wait_ms", wait, "ms")
		r.add("nub."+name+".round_trips", perCmd(c, func(l cmdLayer) float64 { return float64(l.roundTrips) }), "count")
		r.add("nub."+name+".bytes", perCmd(c, func(l cmdLayer) float64 { return float64(l.bytes) }), "bytes")
		r.add("core."+name+".self_ms", self, "ms")
		r.add("core."+name+".allocs", perCmd(c, func(l cmdLayer) float64 { return float64(l.allocs) }), "count")
		if span > 0 {
			r.note("%-8s span %.4f ms = core self %.4f ms + nub wait %.4f ms", name, span, self, wait)
		}
	}
	count := func(c cmd) int64 {
		var n int64
		for i := range t.cmds {
			n += t.cmds[i][c].n
		}
		return n
	}
	r.add("expr.eval.pipe_lines", ratio(t.exprLines, count(cmdEval)), "count")
	r.add("frame.where.frames", ratio(t.frames, count(cmdWhere)), "count")
	r.add("bpt.step.temps", ratio(t.stepTemps, count(cmdStep)), "count")
	r.add("machine.step.invalidations", ratio(t.stepInvals, count(cmdStep)), "count")
	r.add("machine.continue.insns", ratio(t.contInsns, count(cmdContinue)), "count")
	r.add("machine.continue.decodes", ratio(t.contDecodes, count(cmdContinue)), "count")
	var contWait time.Duration
	for i := range t.cmds {
		contWait += t.cmds[i][cmdContinue].wait
	}
	r.add("machine.ns_per_insn", ratio(int64(contWait), t.contInsns), "ns")
	r.add("machine.decode_hit_ratio", 1-ratio(t.decodes, t.steps), "ratio")
	r.add("machine.insns_per_block", ratio(t.blockInsns, t.blocks), "count")
	r.add("nub.batch_occupancy", ratio(t.wire.BatchedMsgs, t.wire.Batches), "count")
	r.add("nub.cache_hit_ratio", ratio(t.wire.CacheHits, t.wire.CacheHits+t.wire.CacheMisses), "ratio")
	r.add("nub.replays", float64(t.wire.Replays), "count")
	before, after := res.svcStats[0], res.svcStats[1]
	hits, misses := after.SharedHits-before.SharedHits, after.SharedMisses-before.SharedMisses
	r.add("nub.service.shared_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.add("nub.service.requests_per_session", ratio(t.svcRequests, t.sessions), "count")
	r.add("nub.service.rollbacks", float64(after.Rollbacks-before.Rollbacks), "count")
	for i, name := range b.order {
		r.add("driver.build_ms."+name, b.buildMs[i], "ms")
	}
	// Tracing overhead: traced minus untraced medians, same run.
	for c := cmd(0); c < numCmds; c++ {
		on, ok1 := t.rec.lat[c].p50()
		off, ok2 := res.rec.lat[c].p50()
		v := 0.0
		if ok1 && ok2 {
			v = on - off
		}
		r.add("trace."+cmdNames[c]+".overhead_ms", v, "ms")
	}
	b.t2(r, res, startup, loadMs)
	if t.dropped > 0 {
		r.note("spans past the %d-span cap were counted but not kept: %d", maxSpans, t.dropped)
	}
	if err := writeSpans(spanFile, res.tracers); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans written to %s", spanFile)
	return nil
}

// t2 prints the rows of the paper's §7 startup table (EXPERIMENTS.md
// T2) this workload measures, per config and combined.
func (b *bench) t2(r *report, res *result, startup float64, loadMs []float64) {
	attach := make([]float64, len(b.order))
	for i, xs := range res.rec.lat[cmdAttach] {
		if len(xs) > 0 {
			attach[i] = quantile(xs, 0.5)
		}
	}
	row := func(label string, perCfg []float64) {
		parts := make([]string, len(perCfg))
		for i, v := range perCfg {
			parts[i] = fmt.Sprintf("%s %.3f", b.order[i], v)
		}
		for _, v := range perCfg {
			if v <= 0 {
				return // some config had no sample
			}
		}
		r.note("T2 | %-40s | %9.3f ms | %s", label, geomean(perCfg), strings.Join(parts, ", "))
	}
	r.note("T2 | %-40s | %9.3f ms |", "read initial PostScript (core.New)", startup)
	switch b.name {
	case "service":
		row("connect over TCP (OpenSession + attach)", attach)
	case "fib", "lcc":
		prog := map[string]string{"fib": "fib", "lcc": "lcc-sized (13,000 lines)"}[b.name]
		row("read symtab, "+prog, loadMs)
		row("connect to "+prog+" (one machine)", attach)
	}
}
