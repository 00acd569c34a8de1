// Benchmarks that regenerate every measured table in the paper's
// evaluation (see EXPERIMENTS.md for the index and recorded results):
//
//	T1  §4.3 machine-dependent LoC per target       BenchmarkLocTable
//	T2  §7 startup and connect times                BenchmarkStartup*, BenchmarkConnect*, BenchmarkReadStabsBaseline
//	E1  §3 no-op stopping-point growth              BenchmarkNoopOverhead
//	E2  §3 MIPS restricted-scheduling penalty       BenchmarkSchedPenalty
//	E3  §7 symbol-table size ratios                 BenchmarkSymtabSize
//	E4  §5 deferral of lexical analysis             BenchmarkSymtabRead*
//	—   ablation: LazyData memoization (§5, §7)     BenchmarkLazyDataMemo
//
// plus throughput benchmarks for the substrates (interpreter, compiler,
// simulators, nub protocol, breakpoints, expression server).
package ldb_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ldb/internal/analysis"
	"ldb/internal/arch"
	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
	"ldb/internal/cc"
	"ldb/internal/core"
	"ldb/internal/driver"
	"ldb/internal/link"
	"ldb/internal/locstats"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/ps"
	"ldb/internal/stab"
	"ldb/internal/symtab"
	"ldb/internal/workload"
)

var targets = []string{"mips", "mipsbe", "sparc", "m68k", "vax"}

const lccSized = 13000 // source lines of the lcc-sized program (§7)

func buildFor(b *testing.B, archName, name, src string, debug, sched bool) *driver.Program {
	b.Helper()
	prog, err := driver.Build([]driver.Source{{Name: name, Text: src}},
		driver.Options{Arch: archName, Debug: debug, Sched: sched})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// --- T1 ---

func BenchmarkLocTable(b *testing.B) {
	root, err := locstats.FindRoot(".")
	if err != nil {
		b.Skip(err)
	}
	var table locstats.Table
	for i := 0; i < b.N; i++ {
		table, err = locstats.Collect(root)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range locstats.Targets {
		b.ReportMetric(float64(locstats.PerTargetTotal(table, t)), t+"_loc")
	}
	b.ReportMetric(float64(locstats.SharedTotal(table)), "shared_loc")
}

// --- T2: the startup table, one benchmark per row ---

func BenchmarkStartupInterp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps.New()
	}
}

func BenchmarkStartupPrelude(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.New(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReadSymtab(b *testing.B, lines int) {
	src := workload.Hello
	if lines > 1 {
		src = workload.Big(lines)
	}
	prog := buildFor(b, "mips", "p.c", src, true, false)
	b.ReportAllocs()
	b.SetBytes(int64(len(prog.LoaderPS)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symtab.Load(ps.New(), prog.LoaderPS); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSymtabHello(b *testing.B) { benchReadSymtab(b, 1) }
func BenchmarkReadSymtabLcc(b *testing.B)   { benchReadSymtab(b, lccSized) }

func benchConnect(b *testing.B, progs ...*driver.Program) {
	b.Helper()
	b.ReportAllocs()
	var n int64
	for _, prog := range progs {
		n += int64(len(prog.LoaderPS))
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.New(nil)
		if err != nil {
			b.Fatal(err)
		}
		for j, prog := range progs {
			client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.AttachClient(fmt.Sprint(j), client, prog.LoaderPS); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkConnectHello(b *testing.B) {
	benchConnect(b, buildFor(b, "mips", "hello.c", workload.Hello, true, false))
}

func BenchmarkConnectLcc(b *testing.B) {
	benchConnect(b, buildFor(b, "mips", "lcc.c", workload.Big(lccSized), true, false))
}

func BenchmarkConnectTwoMips(b *testing.B) {
	p := buildFor(b, "mips", "lcc.c", workload.Big(lccSized), true, false)
	benchConnect(b, p, p)
}

func BenchmarkConnectCrossArch(b *testing.B) {
	benchConnect(b,
		buildFor(b, "mips", "lcc.c", workload.Big(lccSized), true, false),
		buildFor(b, "sparc", "lcc.c", workload.Big(lccSized), true, false))
}

func BenchmarkReadStabsBaseline(b *testing.B) {
	tc := &cc.TargetConf{Name: "mips", LDoubleSize: 8}
	unit, err := cc.Compile(workload.Big(lccSized), "lcc.c", tc)
	if err != nil {
		b.Fatal(err)
	}
	data := stab.Emit([]*cc.Unit{unit})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stab.Read(data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1 ---

func BenchmarkNoopOverhead(b *testing.B) {
	for _, t := range targets {
		b.Run(t, func(b *testing.B) {
			var plain, debug int
			for i := 0; i < b.N; i++ {
				plain, debug = 0, 0
				for _, name := range workload.Names {
					plain += driver.TextWords(buildFor(b, t, name, workload.Programs[name], false, false))
					debug += driver.TextWords(buildFor(b, t, name, workload.Programs[name], true, false))
				}
			}
			b.ReportMetric(100*float64(debug-plain)/float64(plain), "%growth")
		})
	}
}

// --- E2 ---

func BenchmarkSchedPenalty(b *testing.B) {
	var plainPad, debugPad, instrs int
	for i := 0; i < b.N; i++ {
		plainPad, debugPad, instrs = 0, 0, 0
		for _, name := range workload.Names {
			plain := buildFor(b, "mips", name, workload.Programs[name], false, true)
			debug := buildFor(b, "mips", name, workload.Programs[name], true, true)
			plainPad += plain.SchedPadded
			debugPad += debug.SchedPadded
			instrs += driver.TextWords(plain)
		}
	}
	b.ReportMetric(float64(debugPad-plainPad), "extra_nops")
	b.ReportMetric(100*float64(debugPad-plainPad)/float64(instrs), "%growth")
}

// --- E3 ---

func BenchmarkSymtabSize(b *testing.B) {
	tc := &cc.TargetConf{Name: "sparc", LDoubleSize: 8}
	unit, err := cc.Compile(workload.Big(lccSized), "big.c", tc)
	if err != nil {
		b.Fatal(err)
	}
	var pts string
	var stabs []byte
	for i := 0; i < b.N; i++ {
		pts = symtab.EmitProgramPS([]*cc.Unit{unit}, "sparc")
		stabs = stab.Emit([]*cc.Unit{unit})
	}
	b.ReportMetric(float64(len(pts))/float64(len(stabs)), "raw_ratio")
}

// --- E4 ---

func benchSymtabRead(b *testing.B, deferred bool) {
	tc := &cc.TargetConf{Name: "sparc", LDoubleSize: 8}
	unit, err := cc.Compile(workload.Big(lccSized), "big.c", tc)
	if err != nil {
		b.Fatal(err)
	}
	prog := buildFor(b, "sparc", "big.c", workload.Big(lccSized), true, false)
	loaderPS := link.LoaderPS(prog.Image, symtab.EmitProgramPSOpts([]*cc.Unit{unit}, "sparc", deferred))
	b.ReportAllocs()
	b.SetBytes(int64(len(loaderPS)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := symtab.Load(ps.New(), loaderPS); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymtabReadEager(b *testing.B)    { benchSymtabRead(b, false) }
func BenchmarkSymtabReadDeferred(b *testing.B) { benchSymtabRead(b, true) }

// --- ablation: LazyData memoization (§5/§7: anchor fetches happen at
// most once per entry because procedures interpreted at most once are
// replaced with their results) ---

func BenchmarkLazyDataMemo(b *testing.B) {
	prog := buildFor(b, "m68k", "fib.c", workload.Fib, true, false)
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.BreakStop("fib", 7); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgt.FetchScalar("a"); err != nil {
			// a is an array; FetchScalar reads its first word — fine
			// for exercising the where path.
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tgt.LazyFetches), "anchor_fetches")
}

// --- substrate throughput ---

func BenchmarkPSInterp(b *testing.B) {
	in := ps.New()
	if err := in.RunString("/fib { dup 2 lt { pop 1 } { dup 1 sub fib exch 2 sub fib add } ifelse } def"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Eval("15 fib"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	for _, t := range targets {
		b.Run(t, func(b *testing.B) {
			src := workload.Big(500)
			for i := 0; i < b.N; i++ {
				buildFor(b, t, "big.c", src, true, false)
			}
		})
	}
}

func BenchmarkSimulator(b *testing.B) {
	for _, t := range targets {
		b.Run(t, func(b *testing.B) {
			prog := buildFor(b, t, "queens.c", workload.Queens, false, false)
			var steps int64
			for i := 0; i < b.N; i++ {
				p := link.NewProcess(prog.Image)
				if f := p.Run(); f.Kind != arch.FaultHalt {
					b.Fatal(f)
				}
				steps = p.Steps
			}
			b.ReportMetric(float64(steps), "instructions")
		})
	}
}

// simMetrics is one BENCH_sim.json record: simulator throughput with
// the decode cache on and off for one architecture.
type simMetrics struct {
	Arch         string  `json:"arch"`
	Program      string  `json:"program"`
	Instructions float64 `json:"instructions"`
	CachedIPS    float64 `json:"cached_ips"`
	UncachedIPS  float64 `json:"uncached_ips"`
	Speedup      float64 `json:"speedup"`
	HitRate      float64 `json:"hit_rate"`
}

// measureSim runs the program repeatedly for a fixed wall-clock slice
// and returns instructions/sec. Timing by hand instead of through b.N
// keeps the cached-vs-uncached ratio meaningful even under the CI
// smoke run's -benchtime=1x.
func measureSim(b *testing.B, prog *driver.Program, noPredecode bool) (ips, hitRate float64, instr int64) {
	b.Helper()
	const minDur = 150 * time.Millisecond
	var steps int64
	start := time.Now()
	for time.Since(start) < minDur {
		p := link.NewProcess(prog.Image)
		p.NoPredecode = noPredecode
		if f := p.Run(); f.Kind != arch.FaultHalt {
			b.Fatal(f)
		}
		steps += p.Steps
		hitRate = p.SimStats().HitRate()
		instr = p.Steps
	}
	return float64(steps) / time.Since(start).Seconds(), hitRate, instr
}

// BenchmarkSimulatorPredecode measures all four ISAs on the cached
// engine (decode cache and superblock fusion) and the uncached one
// (decode, execute, and discard every instruction), asserts the
// speedup floors — ≥8× on MIPS, ≥9× on SPARC and the 68020, ≥6× on
// the VAX — and records every row in BENCH_sim.json (the simulator
// counterpart of BENCH_wire.json). Each floor is at most 0.7× the
// lowest of 16 solo runs on a 2-vCPU VM (see EXPERIMENTS.md E5), so it
// holds under that machine's noise.
func BenchmarkSimulatorPredecode(b *testing.B) {
	var rows []simMetrics
	for _, t := range []string{"mips", "sparc", "m68k", "vax"} {
		prog := buildFor(b, t, "queens.c", workload.Queens, false, false)
		cached, hit, instr := measureSim(b, prog, false)
		uncached, _, _ := measureSim(b, prog, true)
		m := simMetrics{
			Arch:         t,
			Program:      "queens.c",
			Instructions: float64(instr),
			CachedIPS:    cached,
			UncachedIPS:  uncached,
			Speedup:      cached / uncached,
			HitRate:      hit,
		}
		rows = append(rows, m)
		b.ReportMetric(m.Speedup, t+"_speedup")
		if floor := map[string]float64{"mips": 8, "sparc": 9, "m68k": 9, "vax": 6}[t]; m.Speedup < floor {
			b.Fatalf("%s: %.0f cached vs %.0f uncached instructions/sec (%.2fx) — want >= %.1fx",
				t, cached, uncached, m.Speedup, floor)
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sim.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
	} // the work above is timed by hand; satisfy the bench driver
}

// serviceScalePoint is one BENCH_service.json scaling row: aggregate
// simulated-instruction throughput with N concurrent sessions stepping
// on one debug-service endpoint.
type serviceScalePoint struct {
	Sessions int     `json:"sessions"`
	AggIPS   float64 `json:"agg_ips"`
	Speedup  float64 `json:"speedup_vs_1"`
}

// serviceMetrics is the BENCH_service.json record.
type serviceMetrics struct {
	Program      string              `json:"program"`
	Arch         string              `json:"arch"`
	MaxParallel  int                 `json:"gomaxprocs"`
	Scaling      []serviceScalePoint `json:"scaling"`
	LinearFrac   float64             `json:"linear_fraction"`
	ColdDecodes  int64               `json:"cold_decodes"`
	WarmDecodes  int64               `json:"warm_decodes"`
	SharedHits   int64               `json:"shared_hits"`
	SharedMisses int64               `json:"shared_misses"`
}

// measureService runs `workers` concurrent debugger clients against the
// service at addr for a fixed wall-clock slice, each looping open →
// run-to-exit → read counters → close, and returns the aggregate
// simulated instructions per second.
func measureService(b *testing.B, addr, program string, workers int) float64 {
	b.Helper()
	const minDur = 400 * time.Millisecond
	var total int64
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(minDur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			c, err := nub.Connect(conn)
			if err != nil {
				b.Error(err)
				return
			}
			var steps int64
			for time.Now().Before(deadline) {
				ev, err := c.OpenSession(program)
				if err != nil {
					b.Error(err)
					return
				}
				for !ev.Exited {
					if ev, err = c.Continue(); err != nil {
						b.Error(err)
						return
					}
				}
				st, err := c.SimStats()
				if err != nil {
					b.Error(err)
					return
				}
				steps += st.Steps
				if err := c.CloseSession(); err != nil {
					b.Error(err)
					return
				}
			}
			mu.Lock()
			total += steps
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(total) / time.Since(start).Seconds()
}

// BenchmarkDebugService is the session-multiplexing gate: N concurrent
// debugger clients share one TCP debug-service endpoint, each running
// the simulated program to completion over and over. It asserts
//
//   - warm attach does zero decode work: after one session of a program
//     retires, a fresh session's run decodes nothing — the shared
//     decode cache carries it;
//   - aggregate stepped-instructions/sec scales to 8 sessions at >= 0.6
//     of linear, where "linear" is bounded by the machine's actual
//     parallelism (min(8, GOMAXPROCS)): on a many-core box that demands
//     real concurrency, and on a small one it still forbids the
//     multiplexing layer from collapsing aggregate throughput;
//
// and records the scaling curve in BENCH_service.json.
func BenchmarkDebugService(b *testing.B) {
	prog := buildFor(b, "mips", "queens.c", workload.Queens, false, false)
	s := nub.NewService()
	s.Register("queens", prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.ServeListener(l)
	defer s.Shutdown()
	addr := l.Addr().String()

	// Cold/warm decode accounting: the first session pays the decode
	// cost; once it retires (publishing its decode products), a fresh
	// session must attach warm and decode nothing.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	c, err := nub.Connect(conn)
	if err != nil {
		b.Fatal(err)
	}
	runOnce := func() nub.SimStatsReport {
		ev, err := c.OpenSession("queens")
		if err != nil {
			b.Fatal(err)
		}
		for !ev.Exited {
			if ev, err = c.Continue(); err != nil {
				b.Fatal(err)
			}
		}
		st, err := c.SimStats()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.CloseSession(); err != nil {
			b.Fatal(err)
		}
		return st
	}
	cold := runOnce()
	warm := runOnce()
	if cold.Decodes == 0 {
		b.Fatal("cold session decoded nothing; the warm gate below would be vacuous")
	}
	if warm.Decodes != 0 {
		b.Fatalf("warm session decoded %d instructions, want 0", warm.Decodes)
	}

	m := serviceMetrics{
		Program:     "queens.c",
		Arch:        "mips",
		MaxParallel: runtime.GOMAXPROCS(0),
		ColdDecodes: cold.Decodes,
		WarmDecodes: warm.Decodes,
	}
	var base float64
	for _, n := range []int{1, 2, 4, 8} {
		ips := measureService(b, addr, "queens", n)
		if n == 1 {
			base = ips
		}
		m.Scaling = append(m.Scaling, serviceScalePoint{Sessions: n, AggIPS: ips, Speedup: ips / base})
		b.ReportMetric(ips/1e6, fmt.Sprintf("mips_%dsess", n))
	}
	last := m.Scaling[len(m.Scaling)-1]
	linear := float64(min(last.Sessions, m.MaxParallel))
	m.LinearFrac = last.Speedup / linear
	b.ReportMetric(m.LinearFrac, "linear_fraction")
	if m.LinearFrac < 0.6 {
		b.Fatalf("8-session aggregate is %.2fx the single session (%.0f%% of the %0.f-way linear ceiling) — want >= 60%%",
			last.Speedup, 100*m.LinearFrac, linear)
	}
	m.SharedHits, m.SharedMisses = func() (int64, int64) {
		st, err := c.ServiceStats()
		if err != nil {
			b.Fatal(err)
		}
		return st.SharedHits, st.SharedMisses
	}()
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_service.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
	} // timed by hand, as in BenchmarkSimulatorPredecode
}

// checkpointMetrics is the BENCH_checkpoint.json record: aggregate
// service throughput with crash-only checkpointing off versus on at the
// default interval, and the overhead the protection costs.
type checkpointMetrics struct {
	Program      string  `json:"program"`
	Arch         string  `json:"arch"`
	Sessions     int     `json:"sessions"`
	Interval     int64   `json:"checkpoint_interval"`
	OffIPS       float64 `json:"off_agg_ips"`
	OnIPS        float64 `json:"on_agg_ips"`
	OverheadFrac float64 `json:"overhead_fraction"`
}

// BenchmarkCheckpoint is the crash-only overhead gate: the same
// debug-service workload as BenchmarkDebugService, run once with
// checkpointing disabled and once with the default interval — dirty
// tracking armed, a baseline checkpoint per session, and paced COW
// snapshots inside Run. The protected service must keep at least 90% of
// the unprotected aggregate throughput; the pair is recorded in
// BENCH_checkpoint.json.
func BenchmarkCheckpoint(b *testing.B) {
	prog := buildFor(b, "mips", "queens.c", workload.Queens, false, false)
	serve := func(interval int64) (string, func()) {
		s := nub.NewService()
		s.CheckpointInterval = interval
		s.Register("queens", prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go s.ServeListener(l)
		return l.Addr().String(), s.Shutdown
	}
	const workers = 4
	measure := func(interval int64) float64 {
		addr, shutdown := serve(interval)
		defer shutdown()
		best := 0.0
		for i := 0; i < 2; i++ { // best-of-two per configuration: scheduler noise, not trend
			if ips := measureService(b, addr, "queens", workers); ips > best {
				best = ips
			}
		}
		return best
	}
	off := measure(-1) // negative interval: checkpointing fully disarmed
	on := measure(0)   // zero: machine.DefaultCheckpointInterval
	m := checkpointMetrics{
		Program:      "queens.c",
		Arch:         "mips",
		Sessions:     workers,
		Interval:     machine.DefaultCheckpointInterval,
		OffIPS:       off,
		OnIPS:        on,
		OverheadFrac: 1 - on/off,
	}
	b.ReportMetric(off/1e6, "mips_off")
	b.ReportMetric(on/1e6, "mips_on")
	b.ReportMetric(m.OverheadFrac, "overhead_fraction")
	if on < 0.9*off {
		b.Fatalf("checkpointing costs %.1f%% of aggregate throughput (%.2fM -> %.2fM ips) — want <= 10%%",
			100*m.OverheadFrac, off/1e6, on/1e6)
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_checkpoint.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
	} // timed by hand, as in BenchmarkSimulatorPredecode
}

func BenchmarkNubRoundTrip(b *testing.B) {
	prog := buildFor(b, "mips", "fib.c", workload.Fib, true, false)
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.FetchInt('d', 0x10000000, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBreakpointHit(b *testing.B) {
	// A full stop-inspect-resume cycle per iteration.
	prog := buildFor(b, "sparc", "fib.c", workload.Fib, true, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.New(nil)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tgt.BreakStop("fib", 7); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := tgt.ContinueToBreakpoint(); err != nil {
			b.Fatal(err)
		}
		if _, err := tgt.FetchScalar("i"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceStep times source-level steps (§7.1) of the 500-line
// program on mips, stopped in its last procedure: each step plants a
// temporary breakpoint at every stopping point the program has,
// continues, and removes them, so it crosses the breakpoint layer, the
// client's memory cache and the simulator's text invalidation hundreds
// of times. A target that steps to its exit is replaced, untimed.
func BenchmarkSourceStep(b *testing.B) {
	prog := buildFor(b, "mips", "big.c", workload.Big(500), true, false)
	start := func() *core.Target {
		client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.New(nil)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := d.AttachClient("big", client, prog.LoaderPS)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tgt.BreakProc("work29"); err != nil {
			b.Fatal(err)
		}
		if ev, err := tgt.ContinueToBreakpoint(); err != nil || ev.Exited {
			b.Fatalf("continue to work29: %v %v", ev, err)
		}
		return tgt
	}
	tgt := start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := tgt.Step()
		if err != nil {
			b.Fatal(err)
		}
		if ev.Exited {
			b.StopTimer()
			tgt.Client.Close()
			tgt = start()
			b.StartTimer()
		}
	}
	b.StopTimer()
	tgt.Kill()
}

// --- wire transport: round trips and bytes per debug scenario ---

// wireScenario is one breakpoint-plant + frame-walk cycle: plant a
// breakpoint in fib, run to it, inspect a scalar, single-step (which
// plants and removes a temporary breakpoint at every stopping point),
// and walk the stack. It is the round-trip-heaviest path a debugger
// user exercises interactively.
func wireScenario(b *testing.B, tgt *core.Target) {
	b.Helper()
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.FetchScalar("i"); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.Step(); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.Backtrace(10); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.EvalInt("a[i-1] + a[i-2]"); err != nil {
		b.Fatal(err)
	}
}

// wireMetrics is one BENCH_wire.json record: per-scenario wire costs.
type wireMetrics struct {
	Scenario      string  `json:"scenario"`
	Transport     string  `json:"transport"`
	RoundTrips    float64 `json:"round_trips"`
	MsgsSent      float64 `json:"msgs_sent"`
	BytesSent     float64 `json:"bytes_sent"`
	BytesReceived float64 `json:"bytes_received"`
	Batches       float64 `json:"batches"`
	CacheHits     float64 `json:"cache_hits"`
}

func benchWireScenario(b *testing.B, optimized bool) wireMetrics {
	b.Helper()
	prog := buildFor(b, "sparc", "fib.c", workload.Fib, true, false)
	var agg nub.StatsSnapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
		if err != nil {
			b.Fatal(err)
		}
		client.SetBatching(optimized)
		client.SetCaching(optimized)
		d, err := core.New(nil)
		if err != nil {
			b.Fatal(err)
		}
		tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tgt.BreakStop("fib", 7); err != nil {
			b.Fatal(err)
		}
		client.ResetStats()
		b.StartTimer()
		wireScenario(b, tgt)
		b.StopTimer()
		s := client.Stats()
		agg.RoundTrips += s.RoundTrips
		agg.MsgsSent += s.MsgsSent
		agg.BytesSent += s.BytesSent
		agg.BytesReceived += s.BytesReceived
		agg.Batches += s.Batches
		agg.CacheHits += s.CacheHits
		b.StartTimer()
	}
	n := float64(b.N)
	transport := "plain"
	if optimized {
		transport = "batch+cache"
	}
	m := wireMetrics{
		Scenario:      "breakpoint-plant+frame-walk",
		Transport:     transport,
		RoundTrips:    float64(agg.RoundTrips) / n,
		MsgsSent:      float64(agg.MsgsSent) / n,
		BytesSent:     float64(agg.BytesSent) / n,
		BytesReceived: float64(agg.BytesReceived) / n,
		Batches:       float64(agg.Batches) / n,
		CacheHits:     float64(agg.CacheHits) / n,
	}
	b.ReportMetric(m.RoundTrips, "round_trips")
	b.ReportMetric(m.BytesSent+m.BytesReceived, "wire_bytes")
	return m
}

// BenchmarkWireScenario measures the same debug scenario with the
// optimized transport (batching + caching) and the paper's plain
// one-request-one-reply protocol, asserts the headline ≥3× round-trip
// reduction, and records both rows in BENCH_wire.json.
func BenchmarkWireScenario(b *testing.B) {
	results := map[string]wireMetrics{}
	b.Run("plain", func(b *testing.B) { results["plain"] = benchWireScenario(b, false) })
	b.Run("optimized", func(b *testing.B) { results["optimized"] = benchWireScenario(b, true) })
	plain, optimized := results["plain"], results["optimized"]
	if plain.RoundTrips == 0 || optimized.RoundTrips == 0 {
		return // a -bench filter selected only one arm
	}
	ratio := plain.RoundTrips / optimized.RoundTrips
	if ratio < 3 {
		b.Fatalf("round trips: %.1f plain vs %.1f optimized (%.2fx) — want >= 3x",
			plain.RoundTrips, optimized.RoundTrips, ratio)
	}
	out, err := json.MarshalIndent([]wireMetrics{plain, optimized}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_wire.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEvalExpression(b *testing.B) {
	prog := buildFor(b, "vax", "fib.c", workload.Fib, true, false)
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.BreakStop("fib", 7); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgt.EvalInt("a[i-1] + a[i-2]"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcedureCall measures the §7.1 call extension: synthesize a
// frame, run square in the target, read the result, restore the
// context record.
func BenchmarkProcedureCall(b *testing.B) {
	src := `
int square(int x) { return x * x; }
int main() { return square(3); }
`
	prog := buildFor(b, "sparc", "call.c", src, true, false)
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := d.AttachClient("call", client, prog.LoaderPS)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.BreakProc("main"); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := tgt.CallInt("square", 9); err != nil || v != 81 {
			b.Fatalf("%d %v", v, err)
		}
	}
}

func BenchmarkPrintValue(b *testing.B) {
	prog := buildFor(b, "m68k", "fib.c", workload.Fib, true, false)
	client, _, _, err := nub.Launch(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	if err != nil {
		b.Fatal(err)
	}
	var sink strings.Builder
	d, err := core.New(&sink)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.BreakStop("fib", 7); err != nil {
		b.Fatal(err)
	}
	if _, err := tgt.ContinueToBreakpoint(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := tgt.Print("a"); err != nil {
			b.Fatal(err)
		}
	}
}

// analysisMetrics is the BENCH_analysis.json record: what the ldbvet
// suite found over this repository and what it cost.
type analysisMetrics struct {
	Packages  int            `json:"packages"`
	Files     int            `json:"files"`
	LoadMS    float64        `json:"load_ms"`
	RunMS     float64        `json:"run_ms"`
	Failing   int            `json:"failing"`
	Allowed   int            `json:"allowed"`
	ByName    map[string]int `json:"findings_by_analyzer"`
	AllowedBy map[string]int `json:"allowed_by_analyzer"`
}

// BenchmarkAnalysisSuite times the full ldbvet load + run over the
// repository and records the violation and exception counts in
// BENCH_analysis.json; a nonzero failing count fails the benchmark the
// same way it fails cmd/ldbvet and the analysis self-test.
func BenchmarkAnalysisSuite(b *testing.B) {
	root, err := analysis.FindRoot(".")
	if err != nil {
		b.Skip(err)
	}
	fps := analysis.ArchFingerprints()
	var m analysisMetrics
	for i := 0; i < b.N; i++ {
		start := time.Now()
		repo, err := analysis.Load(analysis.Config{Root: root, Fingerprints: fps})
		if err != nil {
			b.Fatal(err)
		}
		loaded := time.Now()
		diags := analysis.RunSuite(repo)
		done := time.Now()
		m = analysisMetrics{
			Packages:  len(repo.Pkgs),
			LoadMS:    float64(loaded.Sub(start).Microseconds()) / 1000,
			RunMS:     float64(done.Sub(loaded).Microseconds()) / 1000,
			Failing:   len(analysis.Failing(diags)),
			ByName:    map[string]int{},
			AllowedBy: map[string]int{},
		}
		for _, p := range repo.Pkgs {
			m.Files += len(p.Files)
		}
		for _, d := range diags {
			if d.Allowed {
				m.Allowed++
				m.AllowedBy[d.Analyzer]++
			} else {
				m.ByName[d.Analyzer]++
			}
		}
		if m.Failing > 0 {
			b.Fatalf("analysis suite found %d unsuppressed violations", m.Failing)
		}
	}
	b.ReportMetric(m.LoadMS, "load_ms")
	b.ReportMetric(m.RunMS, "run_ms")
	b.ReportMetric(float64(m.Allowed), "allowed")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_analysis.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
