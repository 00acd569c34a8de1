package nub

import (
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
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

// TestMetricsBodyRoundTrip sets every counter of the three groups to a
// distinct nonzero value and carries them through the one codec:
// append, encode, decode, fill. Zero counters are left out, and an
// absent name reads as zero.
func TestMetricsBodyRoundTrip(t *testing.T) {
	var nubIn StatsSnapshot
	var simIn SimStatsReport
	var svcIn ServiceStatsReport
	fields := 0
	for _, p := range []any{&nubIn, &simIn, &svcIn} {
		rv := reflect.ValueOf(p).Elem()
		for i := range rv.NumField() {
			fields++
			v := int64(fields) * 0x10000000001
			if fields%2 == 0 {
				v = -v
			}
			rv.Field(i).SetInt(v)
		}
	}
	ms := appendMetrics(nil, "nub", nubIn)
	ms = appendMetrics(ms, "sim", simIn)
	ms = appendMetrics(ms, "service", svcIn)
	if len(ms) != fields {
		t.Fatalf("%d records for %d counters", len(ms), fields)
	}
	got, err := decodeMetrics(encodeMetrics(ms))
	if err != nil {
		t.Fatal(err)
	}
	var nubOut StatsSnapshot
	var simOut SimStatsReport
	var svcOut ServiceStatsReport
	fillMetrics(&nubOut, "nub", got)
	fillMetrics(&simOut, "sim", got)
	fillMetrics(&svcOut, "service", got)
	if nubOut != nubIn || simOut != simIn || svcOut != svcIn {
		t.Errorf("round trip changed the counters:\n%+v\n%+v\n%+v", nubOut, simOut, svcOut)
	}

	if ms := appendMetrics(nil, "sim", SimStatsReport{Steps: 3}); len(ms) != 1 || ms[0] != (Metric{"sim.Steps", 3}) {
		t.Errorf("zero counters not left out: %v", ms)
	}
	simOut = SimStatsReport{Steps: 9}
	fillMetrics(&simOut, "sim", nil)
	if simOut != (SimStatsReport{}) {
		t.Errorf("absent names did not read as zero: %+v", simOut)
	}
}

// TestDecodeMetricsMalformed pairs the client with a peer whose
// metrics reply is malformed: each must come back as an error, never a
// panic or a partial view.
func TestDecodeMetricsMalformed(t *testing.T) {
	rec := func(name string, v int64) []byte {
		b := append([]byte{byte(len(name))}, name...)
		return binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	body := func(count uint16, recs ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint16(nil, count)
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"empty body", nil, "malformed metrics reply (0 bytes)"},
		{"truncated record", body(1, rec("sim.Steps", 1)[:12]), "truncated at record 0"},
		{"empty name", body(1, rec("", 1)), "has a 0-byte name"},
		{"over-long name", body(1, rec(strings.Repeat("n", maxMetricName+1), 1)), "has a 65-byte name"},
		{"out of order", body(2, rec("sim.Steps", 1), rec("nub.RoundTrips", 2)), `"nub.RoundTrips" out of order`},
		{"repeated name", body(2, rec("sim.Steps", 1), rec("sim.Steps", 2)), `"sim.Steps" out of order`},
		{"count past cap", body(maxMetrics + 1), "exceeds 256"},
		{"count above records", body(3, rec("nub.Batches", 1), rec("sim.Steps", 2)), "truncated at record 2"},
		{"count below records", body(1, rec("nub.Batches", 1), rec("sim.Steps", 2)), "18 trailing bytes"},
		{"trailing bytes", append(body(1, rec("sim.Steps", 1)), 0), "1 trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fakePeer(t, &Msg{Kind: MWelcome}, MMetrics, &Msg{Kind: MMetricsReply, Data: tc.body})
			if ms, err := c.Metrics(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, %v; want an error containing %q", ms, err, tc.want)
			}
		})
	}
}

// TestSimStatsPreFusionNub pairs the client with a peer that still
// answers with a fixed-offset simstats body from before superblock
// fusion (40 bytes, stopping at Fallbacks): SimStats rejects it as
// malformed and reports no counters, rather than reading the offsets
// as records.
func TestSimStatsPreFusionNub(t *testing.T) {
	c := fakePeer(t, &Msg{Kind: MWelcome, Data: []byte("mips")}, MMetrics, &Msg{Kind: MMetricsReply, Data: make([]byte, 40)})
	st, err := c.SimStats()
	if err == nil || !strings.Contains(err.Error(), "metrics reply has 38 trailing bytes") {
		t.Fatalf("40-byte simstats body: %v", err)
	}
	if st != (SimStatsReport{}) {
		t.Errorf("malformed body gave a partial view: %+v", st)
	}
}

// TestServiceStatsPrePassivationBody: a fixed-offset servicestats body
// that stops before the crash-only counters (64 bytes) is rejected as
// malformed by ServiceStats, which reports no counters.
func TestServiceStatsPrePassivationBody(t *testing.T) {
	c := fakePeer(t, &Msg{Kind: MWelcome}, MMetrics, &Msg{Kind: MMetricsReply, Data: make([]byte, 64)})
	st, err := c.ServiceStats()
	if err == nil || !strings.Contains(err.Error(), "metrics reply has 62 trailing bytes") {
		t.Fatalf("64-byte servicestats body: %v", err)
	}
	if st != (ServiceStatsReport{}) {
		t.Errorf("malformed body gave a partial view: %+v", st)
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
