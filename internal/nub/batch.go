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
	c     *Client
	reqs  []Msg    // the queued requests the cache could not answer
	at    []int    // each request's index in res
	res   []Result // one per queued request, in queue order
	arena []byte   // the fetched bytes the results' Data point into
}

// Result is one batch member's outcome: Val for an integer fetch, Data
// for a byte fetch, and Err for any member — the nub's refusal, or the
// transport error for a member the nub never answered. Data is the
// batch's own copy: it stays valid after later requests.
type Result struct {
	Val  uint64
	Data []byte
	Err  error
}

// NewBatch starts an empty batch with room for n requests; more may be
// queued.
func (c *Client) NewBatch(n int) *Batch {
	return &Batch{c: c, reqs: make([]Msg, 0, n), at: make([]int, 0, n), res: make([]Result, 0, n)}
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
		r.Data = b.keep(r.Data)
	} else {
		b.reqs = append(b.reqs, m)
		b.at = append(b.at, len(b.res))
	}
	b.res = append(b.res, r)
}

// keep copies fetched bytes into the batch's arena, which is how a
// result outlives the connection's read buffer and the cache ranges. A
// full arena is replaced by one with room for every member at this
// member's size — exact for a batch of like fetches, which is what
// callers queue — and never grown, so results already cut from it stay
// put.
func (b *Batch) keep(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	if cap(b.arena)-len(b.arena) < len(data) {
		b.arena = make([]byte, 0, len(data)*max(cap(b.res), 1))
	}
	off := len(b.arena)
	b.arena = append(b.arena, data...)
	return b.arena[off:len(b.arena):len(b.arena)]
}

// Run flushes the batch and returns one Result per queued request, in
// queue order. An envelope's failure ends the run: every member it
// left unanswered carries the error. After Run the batch is spent.
func (b *Batch) Run() []Result {
	for lo := 0; lo < len(b.reqs); lo += MaxBatch {
		hi := min(lo+MaxBatch, len(b.reqs))
		if err := b.flush(b.reqs[lo:hi], b.at[lo:hi]); err != nil {
			for _, i := range b.at[lo:] {
				b.res[i].Err = err
			}
			break
		}
	}
	res := b.res
	b.reqs, b.at, b.res, b.arena = nil, nil, nil, nil
	return res
}

// flush sends reqs and settles each reply into its result slot: in one
// envelope when batching is on and there is more than one, otherwise
// one round trip each. The error is an envelope's; a member sent alone
// carries its own.
func (b *Batch) flush(reqs []Msg, at []int) error {
	c := b.c
	if !c.Batching() || len(reqs) < 2 {
		for i := range reqs {
			b.settle(at[i], c.send(&reqs[i]))
		}
		return nil
	}
	env, err := EncodeBatch(c.body[:0], MBatch, reqs)
	if err != nil {
		return err
	}
	c.body = env.Data
	rep, err := c.roundTrip(&env)
	if err != nil {
		return err
	}
	c.stats.Batches.Add(1)
	c.stats.BatchedMsgs.Add(int64(len(reqs)))
	if c.reps, err = DecodeBatch(c.reps[:0], &rep); err != nil {
		return err
	}
	if len(c.reps) != len(reqs) {
		return fmt.Errorf("nub: batch of %d requests got %d replies", len(reqs), len(c.reps))
	}
	for i := range reqs {
		r := Result{Err: checkReply(&c.reps[i], kinds[reqs[i].Kind].reply)}
		if r.Err == nil {
			r = c.settle(&reqs[i], &c.reps[i])
		}
		b.settle(at[i], r)
	}
	return nil
}

// settle records the result of the request queued at index i, copying
// its bytes out of the connection's read buffer.
func (b *Batch) settle(i int, r Result) {
	r.Data = b.keep(r.Data)
	b.res[i] = r
}
