package nub

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Stats counts wire-level activity. The counters are atomic so the nub
// goroutine, the client, and anyone printing them race-freely; a Stats
// must not be copied once in use.
type Stats struct {
	RoundTrips     atomic.Int64 // request/reply exchanges on the wire
	MsgsSent       atomic.Int64 // messages written (envelopes count once)
	MsgsReceived   atomic.Int64 // messages read (envelopes count once)
	BytesSent      atomic.Int64
	BytesReceived  atomic.Int64
	Batches        atomic.Int64 // MBatch envelopes exchanged
	BatchedMsgs    atomic.Int64 // member messages carried inside envelopes
	CacheHits      atomic.Int64 // fetches served from the client cache
	CacheMisses    atomic.Int64 // fetches that had to go to the wire
	Invalidations  atomic.Int64 // whole-cache flushes (one per continue)
	Timeouts       atomic.Int64 // requests killed by the wire deadline
	Reconnects     atomic.Int64 // successful redial + re-attach cycles
	ReconnectFails atomic.Int64 // reconnect cycles that gave up
	Replays        atomic.Int64 // requests transparently re-sent after a reconnect

	// Server-side robustness counters: the nub increments these while
	// surviving hostile or broken input, and serves them over the wire
	// in the nub group of MMetrics. A debug service counts the slow
	// reads and oversize frames it drops in its own service group.
	RecoveredPanics atomic.Int64 // request handlers that panicked and were contained
	MalformedFrames atomic.Int64 // requests rejected by validation before dispatch
	OversizeRejects atomic.Int64 // frames whose declared payload exceeded the cap
	SlowReads       atomic.Int64 // connections dropped by the server read deadline
	CtxFaults       atomic.Int64 // context save/restore failures latched as target faults
}

// StatsSnapshot is a plain-value copy of the counters, safe to compare
// and print.
type StatsSnapshot struct {
	RoundTrips     int64
	MsgsSent       int64
	MsgsReceived   int64
	BytesSent      int64
	BytesReceived  int64
	Batches        int64
	BatchedMsgs    int64
	CacheHits      int64
	CacheMisses    int64
	Invalidations  int64
	Timeouts       int64
	Reconnects     int64
	ReconnectFails int64
	Replays        int64

	RecoveredPanics int64
	MalformedFrames int64
	OversizeRejects int64
	SlowReads       int64
	CtxFaults       int64
}

// Snapshot reads every counter atomically (individually, not as a
// consistent cut — these are diagnostics, not accounting).
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		RoundTrips:     s.RoundTrips.Load(),
		MsgsSent:       s.MsgsSent.Load(),
		MsgsReceived:   s.MsgsReceived.Load(),
		BytesSent:      s.BytesSent.Load(),
		BytesReceived:  s.BytesReceived.Load(),
		Batches:        s.Batches.Load(),
		BatchedMsgs:    s.BatchedMsgs.Load(),
		CacheHits:      s.CacheHits.Load(),
		CacheMisses:    s.CacheMisses.Load(),
		Invalidations:  s.Invalidations.Load(),
		Timeouts:       s.Timeouts.Load(),
		Reconnects:     s.Reconnects.Load(),
		ReconnectFails: s.ReconnectFails.Load(),
		Replays:        s.Replays.Load(),

		RecoveredPanics: s.RecoveredPanics.Load(),
		MalformedFrames: s.MalformedFrames.Load(),
		OversizeRejects: s.OversizeRejects.Load(),
		SlowReads:       s.SlowReads.Load(),
		CtxFaults:       s.CtxFaults.Load(),
	}
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	s.RoundTrips.Store(0)
	s.MsgsSent.Store(0)
	s.MsgsReceived.Store(0)
	s.BytesSent.Store(0)
	s.BytesReceived.Store(0)
	s.Batches.Store(0)
	s.BatchedMsgs.Store(0)
	s.CacheHits.Store(0)
	s.CacheMisses.Store(0)
	s.Invalidations.Store(0)
	s.Timeouts.Store(0)
	s.Reconnects.Store(0)
	s.ReconnectFails.Store(0)
	s.Replays.Store(0)
	s.RecoveredPanics.Store(0)
	s.MalformedFrames.Store(0)
	s.OversizeRejects.Store(0)
	s.SlowReads.Store(0)
	s.CtxFaults.Store(0)
}

// BatchOccupancy is the mean number of member messages per envelope.
func (s StatsSnapshot) BatchOccupancy() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedMsgs) / float64(s.Batches)
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf(
		"round trips %d\nmessages    %d sent, %d received\nbytes       %d sent, %d received\nbatches     %d (%d messages, %.1f avg occupancy)\ncache       %d hits, %d misses, %d invalidations\nrobustness  %d reconnects (%d failed), %d replays, %d timeouts",
		s.RoundTrips, s.MsgsSent, s.MsgsReceived, s.BytesSent, s.BytesReceived,
		s.Batches, s.BatchedMsgs, s.BatchOccupancy(),
		s.CacheHits, s.CacheMisses, s.Invalidations,
		s.Reconnects, s.ReconnectFails, s.Replays, s.Timeouts)
}

// countRW wraps a connection, crediting raw byte counts to a Stats.
type countRW struct {
	rw io.ReadWriter
	s  *Stats
}

func (c *countRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.s.BytesReceived.Add(int64(n))
	return n, err
}

func (c *countRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.s.BytesSent.Add(int64(n))
	return n, err
}

func (c *countRW) Close() error {
	if closer, ok := c.rw.(interface{ Close() error }); ok {
		return closer.Close()
	}
	return nil
}
