package nub

import (
	"fmt"

	"ldb/internal/amem"
)

// Batch queues fetch, plant and unplant requests and flushes them to
// the nub in as few round trips as possible: one MBatch envelope per
// MaxBatch requests, or the plain one-message-at-a-time protocol when
// batching is off (only the round-trip count differs).
//
// Every member takes the client's one request path: a fetch the cache
// can serve is answered when it is queued and never reaches the wire,
// and every reply settles into the cache exactly as the same request's
// reply would if it were sent alone.
type Batch struct {
	c    *Client
	reqs []Msg    // queued requests; a zero Kind marks one the cache answered
	res  []Result // one per queued request, in queue order
}

// Result is one batch member's outcome: Val for an integer fetch, Data
// for a byte fetch, and Err for any member — the nub's refusal, or the
// transport error for a member the nub never answered.
type Result struct {
	Val  uint64
	Data []byte
	Err  error
}

// NewBatch starts an empty batch with room for n requests; more may be
// queued.
func (c *Client) NewBatch(n int) *Batch {
	return &Batch{c: c, reqs: make([]Msg, 0, n), res: make([]Result, 0, n)}
}

// FetchInt queues a size-byte integer fetch.
func (b *Batch) FetchInt(space amem.Space, addr uint32, size int) {
	b.add(Msg{Kind: MFetchInt, Space: byte(space), Addr: addr, Size: uint32(size)})
}

// FetchBytes queues an n-byte raw fetch.
func (b *Batch) FetchBytes(space amem.Space, addr uint32, n int) {
	b.add(Msg{Kind: MFetchBytes, Space: byte(space), Addr: addr, Size: uint32(n)})
}

// PlantStore queues a breakpoint-planting store (§7.1). trap must not
// change before Run.
func (b *Batch) PlantStore(addr uint32, trap []byte) {
	b.add(Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: addr, Data: trap})
}

// UnplantStore queues a breakpoint removal (§7.1).
func (b *Batch) UnplantStore(addr uint32) {
	b.add(Msg{Kind: MUnplantStore, Space: byte(amem.Code), Addr: addr})
}

// add queues m, answering it at once when the cache can.
func (b *Batch) add(m Msg) {
	r, served := b.c.serve(&m)
	if served {
		m.Kind = 0
	}
	b.reqs = append(b.reqs, m)
	b.res = append(b.res, r)
}

// Run flushes the batch and returns one Result per queued request, in
// queue order. An envelope's failure ends the run: every member it
// left unanswered carries the error. After Run the batch is spent.
func (b *Batch) Run() []Result {
	for lo := 0; lo < len(b.reqs); {
		hi, n := lo, 0
		for ; hi < len(b.reqs) && n < MaxBatch; hi++ {
			if b.reqs[hi].Kind != 0 {
				n++
			}
		}
		if err := b.c.flush(b.reqs[lo:hi], b.res[lo:hi], n); err != nil {
			for i := lo; i < len(b.reqs); i++ {
				if b.reqs[i].Kind != 0 {
					b.res[i].Err = err
				}
			}
			break
		}
		lo = hi
	}
	res := b.res
	b.reqs, b.res = nil, nil
	return res
}

// flush sends the n wire-bound members of reqs and settles each reply
// into the matching slot of res: in one envelope when batching is on
// and n is more than one, otherwise one round trip each. The error is
// an envelope's; a member sent alone carries its own.
func (c *Client) flush(reqs []Msg, res []Result, n int) error {
	if !c.Batching() || n < 2 {
		for i := range reqs {
			if reqs[i].Kind != 0 {
				res[i] = c.send(&reqs[i])
			}
		}
		return nil
	}
	msgs := make([]*Msg, 0, n)
	for i := range reqs {
		if reqs[i].Kind != 0 {
			msgs = append(msgs, &reqs[i])
		}
	}
	env, err := EncodeBatch(MBatch, msgs)
	if err != nil {
		return err
	}
	rep, err := c.roundTrip(env)
	if err != nil {
		return err
	}
	c.stats.Batches.Add(1)
	c.stats.BatchedMsgs.Add(int64(len(msgs)))
	reps, err := DecodeBatch(rep)
	if err != nil {
		return err
	}
	if len(reps) != len(msgs) {
		return fmt.Errorf("nub: batch of %d requests got %d replies", len(msgs), len(reps))
	}
	for i := range reqs {
		if reqs[i].Kind == 0 {
			continue
		}
		if err := checkReply(reps[0], kinds[reqs[i].Kind].reply); err != nil {
			res[i] = Result{Err: err}
		} else {
			res[i] = c.settle(&reqs[i], reps[0])
		}
		reps = reps[1:]
	}
	return nil
}
