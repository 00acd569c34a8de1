package nub

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"ldb/internal/arch"
	"ldb/internal/arch/mips"
	"ldb/internal/machine"
)

// TestSimStatsRoundTrip fetches the simulator counters over the wire
// and checks they match the process they came from.
func TestSimStatsRoundTrip(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, p, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SimStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != p.Steps {
		t.Errorf("wire reports %d steps, process ran %d", st.Steps, p.Steps)
	}
	want := p.SimStats()
	if st.Hits != want.Hits || st.Decodes != want.Decodes ||
		st.Invalidations != want.Invalidations || st.Fallbacks != want.Fallbacks ||
		st.Blocks != want.Blocks || st.BlockInsns != want.BlockInsns {
		t.Errorf("wire reports %+v, process has %+v (steps %d)", st, want, p.Steps)
	}
	if st.Steps == 0 {
		t.Error("no instructions executed before the pause trap")
	}
	if st.Blocks == 0 || st.BlockInsns < st.Blocks {
		t.Errorf("fused run reports %d superblocks, %d fused instructions", st.Blocks, st.BlockInsns)
	}
}

// TestSimStatsPreFusionNub pairs the client with a peer from before
// superblock fusion: its simstats reply stops at Fallbacks (40 bytes),
// and the client rejects it as malformed — every nub sends the 56-byte
// body.
func TestSimStatsPreFusionNub(t *testing.T) {
	c := fakePeer(t, &Msg{Kind: MWelcome, Data: []byte("mips")}, MSimStats, &Msg{Kind: MSimStatsReply, Data: make([]byte, 40)})
	if _, err := c.SimStats(); err == nil || !strings.Contains(err.Error(), "malformed simstats reply (40 bytes)") {
		t.Fatalf("40-byte simstats body: %v", err)
	}
}

// TestServiceStatsPrePassivationBody: a servicestats reply that stops
// before the crash-only counters (64 bytes) is rejected as malformed —
// every service sends the 88-byte body.
func TestServiceStatsPrePassivationBody(t *testing.T) {
	c := fakePeer(t, &Msg{Kind: MWelcome}, MServiceStats, &Msg{Kind: MServiceStatsReply, Data: make([]byte, 64)})
	if _, err := c.ServiceStats(); err == nil || !strings.Contains(err.Error(), "malformed servicestats reply (64 bytes)") {
		t.Fatalf("64-byte servicestats body: %v", err)
	}
}

// fakePeer connects a client to a scripted server that sends welcome
// (and, unless it is a lobby, a pause event), waits for one request of
// kind want, and answers it with reply.
func fakePeer(t *testing.T, welcome *Msg, want MsgKind, reply *Msg) *Client {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if err := WriteMsg(srvConn, welcome); err != nil {
				return err
			}
			if len(welcome.Data) > 0 {
				if err := WriteMsg(srvConn, &Msg{Kind: MEvent, Sig: int32(arch.SigTrap), Code: arch.TrapPause}); err != nil {
					return err
				}
			}
			m, err := ReadMsg(srvConn)
			if err != nil {
				return err
			}
			if m.Kind != want {
				return fmt.Errorf("expected %v, got %v", want, m.Kind)
			}
			return WriteMsg(srvConn, reply)
		}()
	}()
	t.Cleanup(func() {
		cliConn.Close()
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	c, err := Connect(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
