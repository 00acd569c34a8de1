package nub

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// The MMetricsReply body lives here with its one codec. A body is a
// list of (name, int64) records sorted by name, each name
// "<group>.<field>": the nub's wire and robustness counters are group
// "nub" (a StatsSnapshot), its simulator counters "sim" (a
// SimStatsReport), and the debug service's pool counters "service" (a
// ServiceStatsReport). A struct is the list of its own counters: the
// reflection walk below turns its int64 fields into records, and the
// fill turns records back into fields by name, so adding a counter is
// adding a field. Zero counters are left out, and an absent name reads
// as zero.
//
// Wire layout, little-endian: a uint16 record count, then per record
// a one-byte name length, the name, and the value as 8 bytes.

// Metric is one named counter of an MMetricsReply.
type Metric struct {
	Name  string
	Value int64
}

const (
	maxMetrics    = 256 // records one body may carry
	maxMetricName = 64  // bytes in one name
)

// SimStatsReport is the nub's simulator report: instructions executed
// and the decode-cache counters behind them. Blocks and BlockInsns
// describe superblock fusion.
type SimStatsReport struct {
	Steps         int64
	Hits          int64
	Decodes       int64
	Invalidations int64
	Fallbacks     int64
	Blocks        int64
	BlockInsns    int64
}

// ServiceStatsReport is the debug service's health line: pool and
// shared-decode-cache counters, per-session and aggregate request
// counts, and the connections it dropped.
type ServiceStatsReport struct {
	Live            int64 // sessions in the pool now
	Peak            int64 // most sessions ever live at once
	Evicted         int64 // idle sessions LRU-evicted at capacity
	Opened          int64 // sessions ever spawned
	SharedHits      int64 // warm attaches served by the shared decode cache
	SharedMisses    int64 // cold attaches that had to decode
	SessionRequests int64 // requests served for this connection's session
	TotalRequests   int64 // requests served across all sessions ever
	// Crash-only lifecycle counters.
	Passivated  int64 // sessions checkpointed into the passivated store on eviction
	Resurrected int64 // sessions rebuilt from a stored checkpoint on attach
	Rollbacks   int64 // crashed requests answered by checkpoint rollback
	// Connections dropped, bound to a session or not.
	SlowReads       int64 // frames not finished within the read deadline
	OversizeRejects int64 // frames whose declared payload exceeded the cap
}

// appendMetrics appends one record per nonzero int64 field of the
// struct v, named "<group>.<field>".
func appendMetrics(ms []Metric, group string, v any) []Metric {
	rv := reflect.ValueOf(v)
	for i := range rv.NumField() {
		if x := rv.Field(i); x.Kind() == reflect.Int64 && x.Int() != 0 {
			ms = append(ms, Metric{group + "." + rv.Type().Field(i).Name, x.Int()})
		}
	}
	return ms
}

// encodeMetrics sorts ms by name and encodes it as a reply body.
func encodeMetrics(ms []Metric) []byte {
	slices.SortFunc(ms, func(a, b Metric) int { return strings.Compare(a.Name, b.Name) })
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(ms)))
	for _, m := range ms {
		b = append(b, byte(len(m.Name)))
		b = append(b, m.Name...)
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Value))
	}
	return b
}

// decodeMetrics validates and decodes a reply body: the count within
// the cap and matching the records, every name non-empty, within its
// cap and strictly after the one before, and no trailing bytes.
func decodeMetrics(b []byte) ([]Metric, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("nub: malformed metrics reply (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > maxMetrics {
		return nil, fmt.Errorf("nub: metrics reply of %d records exceeds %d", n, maxMetrics)
	}
	b = b[2:]
	ms := make([]Metric, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("nub: metrics reply truncated at record %d", i)
		}
		l := int(b[0])
		if l == 0 || l > maxMetricName {
			return nil, fmt.Errorf("nub: metrics record %d has a %d-byte name", i, l)
		}
		if len(b) < 1+l+8 {
			return nil, fmt.Errorf("nub: metrics reply truncated at record %d", i)
		}
		m := Metric{string(b[1 : 1+l]), int64(binary.LittleEndian.Uint64(b[1+l:]))}
		if i > 0 && m.Name <= ms[i-1].Name {
			return nil, fmt.Errorf("nub: metrics record %q out of order", m.Name)
		}
		ms = append(ms, m)
		b = b[1+l+8:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("nub: metrics reply has %d trailing bytes", len(b))
	}
	return ms, nil
}

// fillMetrics sets each int64 field of the struct *dst from the record
// "<group>.<field>" of the sorted ms, or to zero when there is none.
func fillMetrics(dst any, group string, ms []Metric) {
	rv := reflect.ValueOf(dst).Elem()
	for i := range rv.NumField() {
		x := rv.Field(i)
		if x.Kind() != reflect.Int64 {
			continue
		}
		j, ok := slices.BinarySearchFunc(ms, group+"."+rv.Type().Field(i).Name, func(m Metric, name string) int {
			return strings.Compare(m.Name, name)
		})
		var v int64
		if ok {
			v = ms[j].Value
		}
		x.SetInt(v)
	}
}
