// scenarios runs the differential scenario corpus: seeded random C
// programs compiled for every target, debugged over every execution
// and transport mode, with byte-identical transcripts required across
// all of them (see DESIGN.md, "Scenario corpus and differential
// oracles").
//
// Work is scheduled over a ninja-style dependency graph with a
// content-addressed result cache, so a re-run after no changes does no
// compiles and no simulation — it just verifies every diff node is up
// to date.
//
//	scenarios -n 500              # seeds 1..500 against ~/.cache/ldb-scenarios
//	scenarios -n 100 -seed 7000   # seeds 7000..7099
//	scenarios -n 500 -j 16        # 16-way parallel
//	scenarios -cache /tmp/c -n 25 # explicit cache directory
//	scenarios -bench -n 500       # also write BENCH_corpus.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
	"ldb/internal/corpus"
)

func main() {
	n := flag.Int("n", 25, "number of generated scenarios")
	seed := flag.Int64("seed", 1, "first generator seed (scenarios use seed..seed+n-1)")
	jobs := flag.Int("j", runtime.NumCPU(), "concurrent graph jobs")
	cacheDir := flag.String("cache", defaultCacheDir(), "incremental result cache directory")
	bench := flag.String("bench", "", "write throughput/incrementality stats to this JSON file")
	verbose := flag.Bool("v", false, "print per-run statistics")
	flag.Parse()

	cache, err := corpus.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarios: open cache: %v\n", err)
		os.Exit(1)
	}
	ax := corpus.DefaultAxes()
	g, want := corpus.BuildGraph(*seed, *n, ax)
	start := time.Now()
	st, err := (&corpus.Runner{Cache: cache, Jobs: *jobs}).Run(want)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
		os.Exit(1)
	}
	if *verbose || *bench == "" {
		fmt.Printf("scenarios: %d scenarios ok (%d graph nodes, %d executed, %d up to date) in %v\n",
			*n, g.Len(), st.TotalExecuted(), st.UpToDate, elapsed.Round(time.Millisecond))
	}
	if *bench != "" {
		// Measure the incremental guarantee too: an immediate re-run
		// over a fresh graph must restore every diff node from the
		// cache without executing anything.
		_, want2 := corpus.BuildGraph(*seed, *n, ax)
		start2 := time.Now()
		st2, err := (&corpus.Runner{Cache: cache, Jobs: *jobs}).Run(want2)
		elapsed2 := time.Since(start2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenarios: re-run: %v\n", err)
			os.Exit(1)
		}
		if err := writeBench(*bench, *n, ax, [2]corpus.Stats{st, st2}, [2]time.Duration{elapsed, elapsed2}); err != nil {
			fmt.Fprintf(os.Stderr, "scenarios: write bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// defaultCacheDir keeps incremental state under the user cache
// directory so repeated invocations are incremental by default.
func defaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "ldb-scenarios")
	}
	return filepath.Join(os.TempDir(), "ldb-scenarios")
}

// writeBench records corpus throughput for the initial run and the
// incremental hit rate of the immediate re-run, in the same flat-JSON
// shape as the other BENCH_ files.
func writeBench(path string, n int, ax corpus.Axes, st [2]corpus.Stats, elapsed [2]time.Duration) error {
	rows := make([]any, 2)
	for i, phase := range []string{"initial", "rerun"} {
		rows[i] = map[string]any{
			"phase":             phase,
			"scenarios":         n,
			"sessions":          n * ax.Sessions(),
			"graph_nodes":       st[i].Nodes,
			"executed_builds":   st[i].Executed["build"],
			"executed_sessions": st[i].Executed["session"],
			"executed_diffs":    st[i].Executed["diff"],
			"up_to_date":        st[i].UpToDate,
			// Fraction of wanted diff nodes restored straight from the
			// cache (100 on a clean re-run, 0 on a cold one).
			"incremental_hit_pct": 100 * float64(st[i].UpToDate) / float64(max(n, 1)),
			"elapsed_ms":          elapsed[i].Milliseconds(),
			"scenarios_per_sec":   float64(n) / max(elapsed[i].Seconds(), 1e-9),
		}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}
