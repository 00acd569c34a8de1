package corpus

import (
	"bytes"
	"fmt"

	"ldb/internal/driver"
	"ldb/internal/workload"
)

// PredecodeMode selects how a session's simulator executes: decoding
// every instruction afresh and discarding it, or from the decode cache
// with superblock fusion on top. Both must transcribe identically —
// caching and fusion are pure speed transforms.
type PredecodeMode int

const (
	PredecodeOff   PredecodeMode = iota // decode, execute, and discard
	PredecodeFused                      // decode cache + superblock fusion
)

// Axes are the differential dimensions every scenario is checked
// across: the target ISAs (the mips big-endian variant rides along as
// a fifth configuration), the two simulator execution modes, and the
// optimized versus plain wire protocol. A scenario passes only if all
// len(Arches)×2×2 sessions produce byte-identical transcripts.
type Axes struct {
	Arches    []string
	Predecode []PredecodeMode
	Wire      []bool // true = batching+caching transport
}

// DefaultAxes covers everything: 5 targets × 2 execution modes × wire
// on/off = 20 sessions per scenario.
func DefaultAxes() Axes {
	return Axes{
		Arches:    []string{"mips", "mipsbe", "sparc", "m68k", "vax"},
		Predecode: []PredecodeMode{PredecodeFused, PredecodeOff},
		Wire:      []bool{true, false},
	}
}

// Sessions reports the number of sessions per scenario.
func (ax Axes) Sessions() int {
	return len(ax.Arches) * len(ax.Predecode) * len(ax.Wire)
}

// scriptStatic folds the debug script into a session fingerprint (the
// program source reaches the fingerprint through the build dep).
//
//ldb:deterministic
func scriptStatic(sc workload.Scenario) string {
	return fmt.Sprintf("break=%s@%d hits=%d steps=%d prints=%v evals=%v",
		sc.BreakProc, sc.BreakStop, sc.MaxHits, sc.Steps, sc.Prints, sc.Evals)
}

// AddScenario wires one scenario into the graph — one build node per
// arch, one session node per axis point, one diff node over all the
// transcripts — and returns the diff node, the thing a caller wants.
func AddScenario(g *Graph, sc workload.Scenario, ax Axes) *Node {
	var sessions []*Node
	for _, archName := range ax.Arches {
		archName := archName
		build := g.Add(&Node{
			Key:    "build:" + sc.Name + ":" + archName,
			Static: "debug:1\n" + sc.Source,
			Run: func([]any) (any, error) {
				return driver.Build(
					[]driver.Source{{Name: sc.Name + ".c", Text: sc.Source}},
					driver.Options{Arch: archName, Debug: true, Sched: archName == "mips" || archName == "mipsbe"})
			},
		})
		for _, pd := range ax.Predecode {
			for _, wire := range ax.Wire {
				pd, wire := pd, wire
				sessions = append(sessions, g.Add(&Node{
					Key:     fmt.Sprintf("session:%s:%s:p%d:w%d", sc.Name, archName, int(pd), b2i(wire)),
					Static:  scriptStatic(sc),
					Deps:    []*Node{build},
					Persist: true,
					Run: func(deps []any) (any, error) {
						return RunSession(deps[0].(*driver.Program), sc, pd, wire)
					},
				}))
			}
		}
	}
	return g.Add(&Node{
		Key:     "diff:" + sc.Name,
		Deps:    sessions,
		Persist: true,
		Run: func(deps []any) (any, error) {
			want := deps[0].([]byte)
			for i := 1; i < len(deps); i++ {
				got := deps[i].([]byte)
				if !bytes.Equal(want, got) {
					return nil, fmt.Errorf("transcripts diverge:\n--- %s\n%s\n--- %s\n%s\nsource:\n%s",
						sessions[0].Key, firstDiff(want, got, true),
						sessions[i].Key, firstDiff(want, got, false), sc.Source)
				}
			}
			return []byte("ok\n"), nil
		},
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// firstDiff trims two transcripts to the region around their first
// differing line, for readable divergence reports.
func firstDiff(a, b []byte, wantA bool) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) || i < len(bl); i++ {
		var av, bv []byte
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if !bytes.Equal(av, bv) {
			pick := av
			if !wantA {
				pick = bv
			}
			return fmt.Sprintf("line %d: %q", i+1, pick)
		}
	}
	return "(equal)"
}

// BuildGraph generates count scenarios starting at baseSeed and wires
// them all into a fresh graph, returning the diff nodes to run.
func BuildGraph(baseSeed int64, count int, ax Axes) (*Graph, []*Node) {
	g := NewGraph()
	want := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		sc := workload.Generate(baseSeed + int64(i))
		want = append(want, AddScenario(g, sc, ax))
	}
	return g, want
}
