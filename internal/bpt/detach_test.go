package bpt

import (
	"net"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/machine"
	"ldb/internal/nub"
)

// TestRemoveAllAfterDetach: over TCP, a debugger that detaches from a
// service session and then clears its breakpoints reconnects, re-binds
// the session and replays the clear. The service closes the connection
// once it has answered the detach, so the clear's write must fail
// undelivered rather than land in the dead connection and be refused
// as a request that may have run.
func TestRemoveAllAfterDetach(t *testing.T) {
	a, ok := arch.Lookup("mips")
	if !ok {
		t.Fatal("no mips")
	}
	text := append([]byte(nil), a.BreakInstr()...)
	var addrs []uint32
	for range 8 {
		addrs = append(addrs, machine.TextBase+uint32(len(text)))
		text = append(text, a.NopInstr()...)
	}
	s := nub.NewService()
	s.Register("nops", a, text, make([]byte, 64), machine.TextBase)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeListener(l)
	defer s.Shutdown()
	c, conn, err := nub.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := c.OpenSession("nops"); err != nil {
		t.Fatal(err)
	}
	m := New(a, c)
	if err := m.PlantMany(addrs); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveAll(); err != nil {
		t.Fatalf("RemoveAll after Detach: %v", err)
	}
	if got := c.Stats().Reconnects; got != 1 {
		t.Errorf("%d reconnects, want 1", got)
	}
	agree(t, m, addrs)
	if got := len(m.Addrs()); got != 0 {
		t.Errorf("%d breakpoints recorded after RemoveAll", got)
	}
}
