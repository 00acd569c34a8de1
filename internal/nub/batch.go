package nub

import (
	"errors"
	"fmt"

	"ldb/internal/amem"
)

// Batch queues fetch, plant and unplant requests and flushes them to
// the nub in as few round trips as possible: one MBatch envelope per
// MaxBatch requests, or the plain one-message-at-a-time protocol when
// batching is off (only the round-trip count differs). Results land
// in the *IntRes / *BytesRes / *OKRes handles returned when an
// operation was queued, after Run returns.
//
// Cache interplay mirrors the Client's single-shot methods: queued
// fetches that the cache can serve never reach the wire, fetched bytes
// populate the cache, and plants write through it.
type Batch struct {
	c   *Client
	ops []batchOp
}

// IntRes receives a queued integer fetch's result.
type IntRes struct {
	Val uint64
	Err error
}

// BytesRes receives a queued byte fetch's result.
type BytesRes struct {
	Data []byte
	Err  error
}

// OKRes receives a queued plant's or unplant's result.
type OKRes struct {
	Err error
}

type batchOp struct {
	req  *Msg
	want MsgKind
	done bool              // already satisfied (by the cache)
	fin  func(*Msg, error) // deliver reply or error
}

// NewBatch starts an empty batch.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// FetchInt queues a size-byte integer fetch.
func (b *Batch) FetchInt(space amem.Space, addr uint32, size int) *IntRes {
	r := &IntRes{}
	c := b.c
	if c.cache != nil && cacheable(space) {
		if v, ok := c.cache.serveInt(c.order, space, addr, size); ok {
			c.stats.CacheHits.Add(1)
			r.Val = v
			b.ops = append(b.ops, batchOp{done: true})
			return r
		}
		c.stats.CacheMisses.Add(1)
	}
	b.ops = append(b.ops, batchOp{
		req:  &Msg{Kind: MFetchInt, Space: byte(space), Addr: addr, Size: uint32(size)},
		want: MValue,
		fin: func(rep *Msg, err error) {
			if err != nil {
				r.Err = err
				return
			}
			r.Val = rep.Val
			if c.cache != nil && cacheable(space) && c.order != nil && size > 0 && size <= 4 {
				buf := make([]byte, size)
				amem.WriteInt(c.order, buf, rep.Val)
				c.cache.insert(space, addr, buf)
			}
		},
	})
	return r
}

// FetchBytes queues an n-byte raw fetch.
func (b *Batch) FetchBytes(space amem.Space, addr uint32, n int) *BytesRes {
	r := &BytesRes{}
	c := b.c
	if c.cache != nil && cacheable(space) && n > 0 {
		if data, ok := c.cache.lookup(space, addr, n); ok {
			c.stats.CacheHits.Add(1)
			r.Data = append([]byte(nil), data...)
			b.ops = append(b.ops, batchOp{done: true})
			return r
		}
		c.stats.CacheMisses.Add(1)
	}
	b.ops = append(b.ops, batchOp{
		req:  &Msg{Kind: MFetchBytes, Space: byte(space), Addr: addr, Size: uint32(n)},
		want: MBytes,
		fin: func(rep *Msg, err error) {
			if err != nil {
				r.Err = err
				return
			}
			r.Data = rep.Data
			if c.cache != nil && cacheable(space) {
				c.cache.insert(space, addr, rep.Data)
			}
		},
	})
	return r
}

// PlantStore queues a breakpoint-planting store (§7.1).
func (b *Batch) PlantStore(addr uint32, trap []byte) *OKRes {
	r := &OKRes{}
	c := b.c
	stored := append([]byte(nil), trap...)
	b.ops = append(b.ops, batchOp{
		req:  &Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: addr, Data: stored},
		want: MOK,
		fin: func(_ *Msg, err error) {
			r.Err = err
			if err == nil && c.cache != nil {
				c.cache.patch(amem.Code, addr, stored)
			}
		},
	})
	return r
}

// UnplantStore queues a breakpoint removal (§7.1).
func (b *Batch) UnplantStore(addr uint32) *OKRes {
	r := &OKRes{}
	c := b.c
	b.ops = append(b.ops, batchOp{
		req:  &Msg{Kind: MUnplantStore, Space: byte(amem.Code), Addr: addr},
		want: MOK,
		fin: func(_ *Msg, err error) {
			r.Err = err
			if err == nil && c.cache != nil {
				c.cache.invalidate(amem.Code, addr, 16)
			}
		},
	})
	return r
}

// Run flushes the batch. The returned error reports transport failure
// only; per-operation outcomes (a fetch of an unmapped address, say)
// land in the individual result handles. After Run the batch is spent.
func (b *Batch) Run() error {
	var pend []batchOp
	for _, op := range b.ops {
		if !op.done {
			pend = append(pend, op)
		}
	}
	b.ops = nil
	for len(pend) > 0 {
		n := min(len(pend), MaxBatch)
		if err := b.c.flushChunk(pend[:n]); err != nil {
			return err
		}
		pend = pend[n:]
	}
	return nil
}

// flushChunk sends up to MaxBatch operations: one envelope when
// batching is on and there is more than one operation, otherwise
// individual round trips.
func (c *Client) flushChunk(ops []batchOp) error {
	if !c.Batching() || len(ops) < 2 {
		for _, op := range ops {
			rep, err := c.roundTrip(op.req, op.want)
			op.fin(rep, err)
		}
		return nil
	}
	reqs := make([]*Msg, len(ops))
	for i, op := range ops {
		reqs[i] = op.req
	}
	env, err := EncodeBatch(MBatch, reqs)
	if err != nil {
		return err
	}
	rep, err := c.roundTrip(env, MBatchReply)
	if err != nil {
		return err
	}
	c.stats.Batches.Add(1)
	c.stats.BatchedMsgs.Add(int64(len(ops)))
	reps, err := DecodeBatch(rep)
	if err != nil {
		return err
	}
	if len(reps) != len(ops) {
		return fmt.Errorf("nub: batch of %d requests got %d replies", len(ops), len(reps))
	}
	for i, op := range ops {
		sub := reps[i]
		switch {
		case sub.Kind == MError:
			op.fin(nil, errors.New("nub: "+string(sub.Data)))
		case sub.Kind != op.want:
			op.fin(nil, fmt.Errorf("nub: expected %v, got %v", op.want, sub.Kind))
		default:
			op.fin(sub, nil)
		}
	}
	return nil
}
