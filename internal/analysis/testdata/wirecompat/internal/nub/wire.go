// Package nub is the wirecompat fixture: one append-only reply body
// done right, one with a field inserted mid-struct (the violation the
// analyzer exists for), and one with a stale legacy= argument, a
// missing offset, and no codecs.
package nub

import (
	"encoding/binary"
	"fmt"
)

// MsgKind identifies a message on the wire.
type MsgKind uint8

// Message kinds.
const (
	MStats MsgKind = iota + 1
	MBroken
)

type kindInfo struct {
	name    string
	request bool
}

// kinds is the protocol's single source of truth.
//
//ldb:kind-table
var kinds = map[MsgKind]kindInfo{
	MStats:  {name: "statsreply"},
	MBroken: {name: "brokenreply"},
}

// validate is the kind table's validation path.
func validate(k MsgKind) error {
	if _, ok := kinds[k]; !ok {
		return fmt.Errorf("unknown kind %d", k)
	}
	return nil
}

// StatsReply grew from 16 to 24 bytes by appending C.
//
//ldb:wire-body statsreply size=24
type StatsReply struct {
	A int64 //ldb:off 0
	B int64 //ldb:off 8
	C int64 //ldb:off 16
}

func encodeStats(r StatsReply) []byte {
	b := make([]byte, 0, 24)
	for _, v := range []int64{r.A, r.B, r.C} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func decodeStats(b []byte) StatsReply {
	v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }
	return StatsReply{A: v(0), B: v(1), C: v(2)}
}

// BrokenReply had N inserted between A and B: B still declares the
// offset it shipped with, but it moved — exactly what append-only
// forbids. The encoder also forgot the new field.
//
//ldb:wire-body brokenreply size=24
type BrokenReply struct {
	A int64 //ldb:off 0
	N int64 //ldb:off 8
	B int64 //ldb:off 8
}

func encodeBroken(r BrokenReply) []byte {
	b := make([]byte, 0, 24)
	for _, v := range []int64{r.A, r.B} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func decodeBroken(b []byte) BrokenReply {
	v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[i*8:])) }
	return BrokenReply{A: v(0), N: v(1), B: v(2)}
}

// OrphanReply names no kind, carries a legacy= argument the directive
// no longer has, misses an //ldb:off, and has no codec at all.
//
//ldb:wire-body orphanreply size=16 legacy=12
type OrphanReply struct {
	A int64 //ldb:off 0
	B int64
}
