package corpus

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ldb/internal/driver"
	"ldb/internal/workload"
)

// TestRunSessionLeavesNoNub: a finished session must not leave its
// nub's Serve goroutine behind, because that goroutine holds the whole
// simulated process — its memory images, decode caches, and
// superblocks.
func TestRunSessionLeavesNoNub(t *testing.T) {
	sc := workload.Generate(7)
	prog, err := driver.Build([]driver.Source{{Name: sc.Name + ".c", Text: sc.Source}},
		driver.Options{Arch: "sparc", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range []PredecodeMode{PredecodeFused, PredecodeOff} {
		for _, wire := range []bool{true, false} {
			if _, err := RunSession(prog, sc, pd, wire); err != nil {
				t.Fatalf("predecode %d, wire %v: %v", pd, wire, err)
			}
		}
	}
	// Serve returns asynchronously once its connection closes.
	var n int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		n = strings.Count(string(buf[:runtime.Stack(buf, true)]), "nub.(*Nub).Serve(")
		if n == 0 {
			return
		}
	}
	t.Errorf("%d nub Serve goroutines outlive their sessions", n)
}
