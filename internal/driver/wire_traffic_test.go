package driver

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldb/internal/core"
	"ldb/internal/machine"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the wire traffic golden")

// teeConn records what crosses one end of a connection: everything
// written through it and everything read from it, each as a running
// digest and byte count. Embedding the net.Conn keeps its deadlines
// and Close, so the client times its requests exactly as it would on
// the bare connection.
type teeConn struct {
	net.Conn
	sent, recv   hash.Hash
	nsent, nrecv int
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Write(p[:n])
	c.nrecv += n
	return n, err
}

func (c *teeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Write(p[:n])
	c.nsent += n
	return n, err
}

// wireTraffic runs the BENCH_wire script — attach, break at fib stop
// 7, continue, print i, evaluate a[i-1] + a[i-2], backtrace, step,
// clear, run to exit — on fib over the arrangement nub.Launch makes
// (a nub serving one end of an in-memory pipe), with a tee on the
// client's end. It returns the digests of both byte streams and the
// client's final counters, one block of golden text.
func wireTraffic(t *testing.T, archName string, optimized bool) string {
	t.Helper()
	prog, err := Build([]Source{{Name: "fib.c", Text: workload.Fib}}, Options{Arch: archName, Debug: true})
	if err != nil {
		t.Fatalf("%s: build: %v", archName, err)
	}
	p := machine.New(prog.Arch, prog.Image.Text, prog.Image.Data, prog.Image.Entry)
	n := nub.New(p)
	cli, srv := net.Pipe()
	go func() { _ = n.Serve(srv) }()
	tee := &teeConn{Conn: cli, sent: sha256.New(), recv: sha256.New()}
	client, err := nub.Connect(tee)
	if err != nil {
		t.Fatalf("%s: connect: %v", archName, err)
	}
	defer client.Close()
	client.SetBatching(optimized)
	client.SetCaching(optimized)

	d, err := core.New(&strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := d.AttachClient("fib", client, prog.LoaderPS)
	if err != nil {
		t.Fatalf("%s: attach: %v", archName, err)
	}
	tgt.Stdout = &p.Stdout
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s: %v", archName, what, err)
		}
	}
	_, err = tgt.BreakStop("fib", 7)
	step("break", err)
	_, err = tgt.ContinueToBreakpoint()
	step("continue", err)
	step("print", tgt.Print("i"))
	_, err = tgt.EvalInt("a[i-1] + a[i-2]")
	step("eval", err)
	_, err = tgt.Backtrace(10)
	step("backtrace", err)
	_, err = tgt.Step()
	step("step", err)
	step("clear", tgt.Bpts.RemoveAll())
	ev, err := tgt.ContinueToBreakpoint()
	step("run to exit", err)
	if !ev.Exited {
		t.Fatalf("%s: expected exit, stopped at %#x", archName, ev.PC)
	}

	transport := "plain"
	if optimized {
		transport = "batch+cache"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", archName, transport)
	fmt.Fprintf(&b, "  sent     %6d bytes sha256:%x\n", tee.nsent, tee.sent.Sum(nil))
	fmt.Fprintf(&b, "  received %6d bytes sha256:%x\n", tee.nrecv, tee.recv.Sum(nil))
	// Every counter, by name: StatsSnapshot's own String leaves some out.
	type counters nub.StatsSnapshot
	fmt.Fprintf(&b, "  stats    %+v\n", counters(client.Stats()))
	return b.String()
}

// TestWireTrafficGolden pins the bytes the client puts on the wire and
// reads back, and its counters, for one debug session per config and
// transport. Any change to the client's request path — batching,
// caching, replay — that moves a single byte shows here. Run with
// -update to rewrite testdata/wire_traffic.golden after a deliberate
// protocol change.
func TestWireTrafficGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range allArches {
		for _, optimized := range []bool{true, false} {
			got.WriteString(wireTraffic(t, name, optimized))
		}
	}
	path := filepath.Join("testdata", "wire_traffic.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(want, []byte(got.String())) {
		t.Errorf("wire traffic changed:\n--- want\n%s--- got\n%s", want, got.String())
	}
}
