package bpt

import (
	"errors"
	"io"
	"net"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/machine"
	"ldb/internal/nub"
)

// loseReply is a client's end of the wire that severs itself when the
// client starts reading the reply to its nth MBatch envelope: the nub
// has the whole envelope and runs it, but its reply never arrives.
type loseReply struct {
	net.Conn
	nth  int // envelopes to write before the lost one; 0 loses none
	lose bool
}

func (l *loseReply) Write(p []byte) (int, error) {
	// The client writes each frame in one call, so a write's first byte
	// is its frame's kind.
	if len(p) > 0 && p[0] == byte(nub.MBatch) && l.nth > 0 {
		l.nth--
		l.lose = l.nth == 0
	}
	return l.Conn.Write(p)
}

func (l *loseReply) Read(p []byte) (int, error) {
	if l.lose {
		l.lose = false
		l.Conn.Close()
		return 0, errors.New("reply lost")
	}
	return l.Conn.Read(p)
}

// spanEnvelopes launches mips on a text of a trap followed by more
// stopping-point no-ops than one envelope carries, behind a loseReply
// whose client redials the same nub. It returns the manager, the no-op
// addresses, and the wrapper.
func spanEnvelopes(t *testing.T) (*Manager, []uint32, *loseReply) {
	t.Helper()
	a, ok := arch.Lookup("mips")
	if !ok {
		t.Fatal("no mips")
	}
	text := append([]byte(nil), a.BreakInstr()...)
	var addrs []uint32
	for range nub.MaxBatch + 88 {
		addrs = append(addrs, machine.TextBase+uint32(len(text)))
		text = append(text, a.NopInstr()...)
	}
	n := nub.New(machine.New(a, text, make([]byte, 64), machine.TextBase))
	dial := func() net.Conn {
		cli, srv := net.Pipe()
		go func() { _ = n.Serve(srv) }()
		return cli
	}
	lose := &loseReply{Conn: dial()}
	c, err := nub.Connect(lose)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRedial(func() (io.ReadWriter, error) { return dial(), nil })
	t.Cleanup(func() { c.Close() })
	return New(a, c), addrs, lose
}

// plantedAt counts the nub's planted breakpoints among addrs.
func plantedAt(t *testing.T, c *nub.Client, addrs []uint32) int {
	t.Helper()
	recs, err := c.ListPlanted()
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[uint32]bool)
	for _, a := range addrs {
		in[a] = true
	}
	n := 0
	for _, r := range recs {
		if in[r.Addr] {
			n++
		}
	}
	return n
}

// agree checks that bpt and the nub agree on every address in addrs:
// bpt records a breakpoint exactly where the nub holds a trap.
func agree(t *testing.T, m *Manager, addrs []uint32) {
	t.Helper()
	recs, err := m.C.ListPlanted()
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[uint32]bool)
	for _, r := range recs {
		held[r.Addr] = true
	}
	unknown, stale := 0, 0
	for _, a := range addrs {
		switch {
		case held[a] && !m.IsPlanted(a):
			unknown++
		case !held[a] && m.IsPlanted(a):
			stale++
		}
	}
	if unknown != 0 || stale != 0 {
		t.Errorf("nub holds %d traps bpt does not know about, bpt records %d the nub does not hold", unknown, stale)
	}
}

// TestPlantManyRollsBackLandedEnvelopes: a plant batch that spans two
// envelopes and loses the second one's reply still records the plants
// of the first, which landed, and those of the second, which the nub
// ran, so its rollback removes them all and the nub keeps no trap bpt
// does not know about.
func TestPlantManyRollsBackLandedEnvelopes(t *testing.T) {
	m, addrs, lose := spanEnvelopes(t)
	lose.nth = 4 // two envelopes of no-op checks, then the plants' second
	if err := m.PlantMany(addrs); !nub.IsConnLost(err) {
		t.Fatalf("PlantMany with a lost reply: %v, want a connection loss", err)
	}
	if got := len(m.Addrs()); got != 0 {
		t.Errorf("%d breakpoints recorded after a failed PlantMany", got)
	}
	if got := plantedAt(t, m.C, addrs[:nub.MaxBatch]); got != 0 {
		t.Errorf("nub keeps %d traps of the first envelope after the rollback", got)
	}
	if got := plantedAt(t, m.C, addrs[nub.MaxBatch:]); got != 0 {
		t.Errorf("nub keeps %d traps of the lost envelope after the rollback", got)
	}
	agree(t, m, addrs)
}

// TestRemoveManyForgetsWhatItUnplanted: an unplant batch that spans two
// envelopes and loses the second one's reply forgets the addresses the
// first envelope unplanted, and those the nub unplanted for the second.
func TestRemoveManyForgetsWhatItUnplanted(t *testing.T) {
	m, addrs, lose := spanEnvelopes(t)
	if err := m.PlantMany(addrs); err != nil {
		t.Fatal(err)
	}
	lose.nth = 2
	if err := m.RemoveMany(addrs); !nub.IsConnLost(err) {
		t.Fatalf("RemoveMany with a lost reply: %v, want a connection loss", err)
	}
	kept := 0
	for _, a := range addrs[:nub.MaxBatch] {
		if m.IsPlanted(a) {
			kept++
		}
	}
	if kept != 0 {
		t.Errorf("bpt still records %d breakpoints the first envelope unplanted", kept)
	}
	if got := plantedAt(t, m.C, addrs[:nub.MaxBatch]); got != 0 {
		t.Errorf("nub keeps %d traps of the first envelope", got)
	}
	agree(t, m, addrs)
}
