package nub

import (
	"encoding/binary"
	"fmt"
)

// The stats reply bodies live here, one struct per wire kind, with
// their codecs beside them. Each struct is append-only: every field's
// byte offset is frozen once it ships. The //ldb:wire-body and
// //ldb:off directives let the wirecompat analyzer recompute the
// offsets on every run and reject a reorder or mid-struct insertion
// before it reaches the wire.
// The encode/decode pairs below are the only writers and readers of
// these bodies — the nub, the service, and the client all go through
// them, so both sides of the protocol are bound to one definition.

// SimStatsReport is the nub's simulator report: instructions executed
// and the decode-cache counters behind them. Blocks and BlockInsns
// describe superblock fusion.
//
//ldb:wire-body simstatsreply size=56
type SimStatsReport struct {
	Steps         int64 //ldb:off 0
	Hits          int64 //ldb:off 8
	Decodes       int64 //ldb:off 16
	Invalidations int64 //ldb:off 24
	Fallbacks     int64 //ldb:off 32
	Blocks        int64 //ldb:off 40
	BlockInsns    int64 //ldb:off 48
}

func encodeSimStats(r SimStatsReport) []byte {
	b := make([]byte, 0, 56)
	for _, v := range []int64{r.Steps, r.Hits, r.Decodes, r.Invalidations,
		r.Fallbacks, r.Blocks, r.BlockInsns} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func decodeSimStats(b []byte) (SimStatsReport, error) {
	if len(b) != 56 {
		return SimStatsReport{}, fmt.Errorf("nub: malformed simstats reply (%d bytes)", len(b))
	}
	v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }
	return SimStatsReport{
		Steps: v(0), Hits: v(1), Decodes: v(2), Invalidations: v(3),
		Fallbacks: v(4), Blocks: v(5), BlockInsns: v(6),
	}, nil
}

// ServerStatsReport is the nub's robustness report: what hostile or
// broken input it has survived so far.
//
//ldb:wire-body serverstatsreply size=40
type ServerStatsReport struct {
	RecoveredPanics int64 //ldb:off 0
	MalformedFrames int64 //ldb:off 8
	OversizeRejects int64 //ldb:off 16
	SlowReads       int64 //ldb:off 24
	CtxFaults       int64 //ldb:off 32
}

func encodeServerStats(r ServerStatsReport) []byte {
	b := make([]byte, 0, 40)
	for _, v := range []int64{r.RecoveredPanics, r.MalformedFrames,
		r.OversizeRejects, r.SlowReads, r.CtxFaults} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func decodeServerStats(b []byte) (ServerStatsReport, error) {
	if len(b) != 40 {
		return ServerStatsReport{}, fmt.Errorf("nub: malformed serverstats reply (%d bytes)", len(b))
	}
	v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }
	return ServerStatsReport{
		RecoveredPanics: v(0), MalformedFrames: v(1), OversizeRejects: v(2),
		SlowReads: v(3), CtxFaults: v(4),
	}, nil
}

// ServiceStatsReport is the debug service's health line: pool and
// shared-decode-cache counters, plus per-session and aggregate request
// counts.
//
//ldb:wire-body servicestatsreply size=88
type ServiceStatsReport struct {
	Live            int64 //ldb:off 0  — sessions in the pool now
	Peak            int64 //ldb:off 8  — most sessions ever live at once
	Evicted         int64 //ldb:off 16 — idle sessions LRU-evicted at capacity
	Opened          int64 //ldb:off 24 — sessions ever spawned
	SharedHits      int64 //ldb:off 32 — warm attaches served by the shared decode cache
	SharedMisses    int64 //ldb:off 40 — cold attaches that had to decode
	SessionRequests int64 //ldb:off 48 — requests served for this connection's session
	TotalRequests   int64 //ldb:off 56 — requests served across all sessions ever
	// Crash-only lifecycle counters.
	Passivated  int64 //ldb:off 64 — sessions checkpointed into the passivated store on eviction
	Resurrected int64 //ldb:off 72 — sessions rebuilt from a stored checkpoint on attach
	Rollbacks   int64 //ldb:off 80 — crashed requests answered by checkpoint rollback
}

func encodeServiceStats(r ServiceStatsReport) []byte {
	b := make([]byte, 0, 88)
	for _, v := range []int64{r.Live, r.Peak, r.Evicted, r.Opened,
		r.SharedHits, r.SharedMisses, r.SessionRequests, r.TotalRequests,
		r.Passivated, r.Resurrected, r.Rollbacks} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func decodeServiceStats(b []byte) (ServiceStatsReport, error) {
	if len(b) != 88 {
		return ServiceStatsReport{}, fmt.Errorf("nub: malformed servicestats reply (%d bytes)", len(b))
	}
	v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }
	return ServiceStatsReport{
		Live: v(0), Peak: v(1), Evicted: v(2), Opened: v(3),
		SharedHits: v(4), SharedMisses: v(5),
		SessionRequests: v(6), TotalRequests: v(7),
		Passivated: v(8), Resurrected: v(9), Rollbacks: v(10),
	}, nil
}
