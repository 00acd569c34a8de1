package corpus

import (
	"runtime"
	"strings"
	"testing"

	"ldb/internal/workload"
)

// The tier-1 corpus smoke: ~25 generated scenarios plus the hand
// workloads, every oracle axis (5 targets × fused/per-insn/uncached
// execution × wire on/off), byte-identical transcripts required. A
// second run against the same cache must be a no-op — no compiles, no
// simulations.
func TestCorpusSmoke(t *testing.T) {
	count := 25
	if testing.Short() {
		count = 5
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ax := DefaultAxes()
	build := func() (*Graph, []*Node) {
		g, want := BuildGraph(1000, count, ax)
		for _, sc := range workloadScenarios() {
			want = append(want, AddScenario(g, sc, ax))
		}
		return g, want
	}
	_, want := build()
	r := &Runner{Cache: cache, Jobs: runtime.NumCPU()}
	st, err := r.Run(want)
	if err != nil {
		t.Fatalf("corpus run: %v", err)
	}
	if st.Executed["session"] != len(want)*ax.Sessions() {
		t.Errorf("executed %d sessions, want %d", st.Executed["session"], len(want)*ax.Sessions())
	}
	if st.Executed["build"] != len(want)*len(ax.Arches) {
		t.Errorf("executed %d builds, want %d", st.Executed["build"], len(want)*len(ax.Arches))
	}

	// The incremental guarantee: an immediate re-run reports every
	// graph node up to date and does no compile or simulate work.
	_, want2 := build()
	st2, err := (&Runner{Cache: cache, Jobs: runtime.NumCPU()}).Run(want2)
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if n := st2.TotalExecuted(); n != 0 {
		t.Errorf("clean re-run executed %d nodes (%v), want 0", n, st2.Executed)
	}
	if st2.UpToDate != len(want2) {
		t.Errorf("clean re-run: %d nodes up to date, want %d", st2.UpToDate, len(want2))
	}
}

// A transcript is address-free by construction; make sure nothing that
// looks like a hex address leaks in, since that is what guarantees the
// cross-ISA byte equality the oracle depends on.
func TestTranscriptsAddressFree(t *testing.T) {
	sc := workload.Generate(4242)
	g := NewGraph()
	AddScenario(g, sc, Axes{Arches: []string{"vax"}, Predecode: []PredecodeMode{PredecodeFused}, Wire: []bool{true}})
	var tr []byte
	for _, n := range []string{"session:" + sc.Name + ":vax:p1:w1"} {
		node := g.Add(&Node{Key: n})
		if node.Run == nil {
			t.Fatalf("session node %s not registered", n)
		}
		out, err := (&Runner{Jobs: 1}).evalForTest(node)
		if err != nil {
			t.Fatal(err)
		}
		tr = out.([]byte)
	}
	if strings.Contains(string(tr), "0x") {
		t.Errorf("transcript contains a hex address:\n%s", tr)
	}
	for _, wantSub := range []string{"break ", "hit 1 at ", "exit 0", "output "} {
		if !strings.Contains(string(tr), wantSub) {
			t.Errorf("transcript missing %q:\n%s", wantSub, tr)
		}
	}
}

// evalForTest exposes single-node evaluation for tests.
func (r *Runner) evalForTest(n *Node) (any, error) {
	n.Fingerprint()
	return r.eval(n, make(chan struct{}, 1))
}
