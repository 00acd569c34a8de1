package nub

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"ldb/internal/amem"
	"ldb/internal/arch/mips"
	"ldb/internal/machine"
)

// TestBatchedSessionAllTargets drives fetches, plants and unplants
// through MBatch envelopes on every target and checks the results
// match what the single-shot methods stored.
func TestBatchedSessionAllTargets(t *testing.T) {
	for _, a := range allArches {
		t.Run(a.Name(), func(t *testing.T) {
			code := testProgram(t, a)
			c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Batching() {
				t.Fatal("nub did not advertise batch support")
			}
			if err := c.StoreInt(amem.Data, machine.DataBase+8, 4, 0xdead); err != nil {
				t.Fatal(err)
			}
			if err := c.StoreInt(amem.Data, machine.DataBase+12, 2, 0xbeef); err != nil {
				t.Fatal(err)
			}
			bpt := uint32(machine.TextBase + 8)
			b := c.NewBatch(2)
			b.PlantStore(bpt, a.BreakInstr())
			b.UnplantStore(bpt)
			if res := b.Run(); res[0].Err != nil || res[1].Err != nil {
				t.Fatalf("plant, unplant: %v %v", res[0].Err, res[1].Err)
			}
			c.SetCaching(false) // force the fetches onto the wire
			b = c.NewBatch(5)
			b.FetchInt(amem.Data, machine.DataBase+8, 4)
			b.FetchInt(amem.Data, machine.DataBase+12, 2)
			b.FetchBytes(amem.Code, machine.TextBase, 8)
			b.FetchBytes(amem.Code, bpt, 4)
			b.FetchInt(amem.Data, machine.DataBase+1<<16, 4)
			res := b.Run()
			if len(res) != 5 {
				t.Fatalf("%d results for 5 members", len(res))
			}
			f1, f2, f3, f4, bad := res[0], res[1], res[2], res[3], res[4]
			if f1.Err != nil || f1.Val != 0xdead {
				t.Errorf("f1 = %#x, %v", f1.Val, f1.Err)
			}
			if f2.Err != nil || f2.Val != 0xbeef {
				t.Errorf("f2 = %#x, %v", f2.Val, f2.Err)
			}
			if f3.Err != nil || !bytes.Equal(f3.Data, code[:8]) {
				t.Errorf("f3 = %x, %v", f3.Data, f3.Err)
			}
			if f4.Err != nil || !bytes.Equal(f4.Data, code[8:12]) {
				t.Errorf("f4 = %x, %v; want the unplanted %x", f4.Data, f4.Err, code[8:12])
			}
			// A failing member fails alone; the rest of the batch lands.
			if bad.Err == nil {
				t.Error("out-of-bounds fetch in a batch succeeded")
			}
			st := c.Stats()
			if st.Batches < 2 {
				t.Errorf("batches = %d, want >= 2", st.Batches)
			}
			if st.BatchOccupancy() < 2 {
				t.Errorf("occupancy = %.1f, want >= 2", st.BatchOccupancy())
			}
		})
	}
}

// TestBatchFallsBackWhenBatchingOff: with batching off — the paper's
// plain transport — a Batch still works, one message per operation.
func TestBatchFallsBackWhenBatchingOff(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBatching(false)
	if c.Batching() {
		t.Fatal("client claims batching after SetBatching(false)")
	}
	if err := c.StoreInt(amem.Data, machine.DataBase+8, 4, 7); err != nil {
		t.Fatal(err)
	}
	rt := c.Stats().RoundTrips
	bpt := uint32(machine.TextBase + 8)
	b := c.NewBatch(3)
	b.PlantStore(bpt, a.BreakInstr())
	b.UnplantStore(bpt)
	b.FetchInt(amem.Data, machine.DataBase+8, 4)
	res := b.Run()
	s, u, f := res[0], res[1], res[2]
	if s.Err != nil || u.Err != nil || f.Err != nil || f.Val != 7 {
		t.Fatalf("fallback batch: %v %v %v val=%d", s.Err, u.Err, f.Err, f.Val)
	}
	st := c.Stats()
	if st.Batches != 0 {
		t.Errorf("unbatched session used %d envelopes", st.Batches)
	}
	if got := st.RoundTrips - rt; got < 2 {
		t.Errorf("round trips = %d, want one per operation", got)
	}
}

// rawSession connects a raw wire to a serving nub and consumes the
// welcome and the pending event.
func rawSession(t *testing.T, n *Nub) (net.Conn, func()) {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n.Serve(a)
	}()
	w, err := ReadMsg(b)
	if err != nil || w.Kind != MWelcome {
		t.Fatalf("welcome: %v %v", w, err)
	}
	if _, err := ReadMsg(b); err != nil {
		t.Fatalf("pending event: %v", err)
	}
	return b, func() { b.Close(); <-done }
}

// TestBatchRejectsControlMembers sends envelopes carrying messages that
// may not ride in a batch: the member gets an MError, the envelope (and
// well-formed members beside it) still succeed.
func TestBatchRejectsControlMembers(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	p := machine.New(a, code, make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()
	conn, shutdown := rawSession(t, n)
	defer shutdown()

	env, err := EncodeBatch(nil, MBatch, []Msg{
		{Kind: MContinue},
		{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4},
		{Kind: MKill},
		{Kind: MDetach},
		{Kind: MHello},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(conn, &env); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != MBatchReply {
		t.Fatalf("reply = %v", rep.Kind)
	}
	members, err := DecodeBatch(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []MsgKind{MError, MValue, MError, MError, MError}
	for i, m := range members {
		if m.Kind != wantKinds[i] {
			t.Errorf("member %d = %v, want %v", i, m.Kind, wantKinds[i])
		}
	}
	// The target never ran and is still alive: a plain fetch works.
	if err := WriteMsg(conn, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4}); err != nil {
		t.Fatal(err)
	}
	if rep, err = ReadMsg(conn); err != nil || rep.Kind != MValue {
		t.Fatalf("session broken after rejected members: %v %v", rep, err)
	}

	// A hand-crafted nested envelope is rejected as a whole.
	var inner bytes.Buffer
	if err := WriteMsg(&inner, &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4}); err != nil {
		t.Fatal(err)
	}
	var outer bytes.Buffer
	if err := WriteMsg(&outer, &Msg{Kind: MBatch, Val: 1, Data: inner.Bytes()}); err != nil {
		t.Fatal(err)
	}
	nested := &Msg{Kind: MBatch, Val: 1, Data: outer.Bytes()}
	if err := WriteMsg(conn, nested); err != nil {
		t.Fatal(err)
	}
	if rep, err = ReadMsg(conn); err != nil {
		t.Fatal(err)
	}
	// A malformed envelope is answered with a plain error for the whole
	// envelope, not a member-level one.
	if rep.Kind != MError {
		t.Fatalf("nested envelope answered with %v, want MError", rep.Kind)
	}
}

// encodeEnvelope builds raw member bytes for hand-rolled malformed
// envelopes.
func encodeMembers(t *testing.T, msgs ...*Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDecodeBatchMalformed table-tests the envelope decoder against
// malformed framing: every case must return an error, never panic.
func TestDecodeBatchMalformed(t *testing.T) {
	fetch := &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: 16, Size: 4}
	one := encodeMembers(t, fetch)
	two := encodeMembers(t, fetch, fetch)
	cases := []struct {
		name string
		env  *Msg
	}{
		{"not an envelope", &Msg{Kind: MFetchInt, Val: 1, Data: one}},
		{"zero count", &Msg{Kind: MBatch, Val: 0, Data: one}},
		{"count over limit", &Msg{Kind: MBatch, Val: MaxBatch + 1, Data: one}},
		{"count exceeds payload", &Msg{Kind: MBatch, Val: 2, Data: one}},
		{"payload exceeds count", &Msg{Kind: MBatch, Val: 1, Data: two}},
		{"empty payload", &Msg{Kind: MBatch, Val: 1}},
		{"truncated member", &Msg{Kind: MBatch, Val: 1, Data: one[:len(one)-1]}},
		{"truncated header", &Msg{Kind: MBatch, Val: 1, Data: one[:5]}},
		{"nested envelope", &Msg{Kind: MBatch, Val: 1,
			Data: encodeMembers(t, &Msg{Kind: MBatch, Val: 1, Data: one})}},
		{"nested reply", &Msg{Kind: MBatchReply, Val: 1,
			Data: encodeMembers(t, &Msg{Kind: MBatchReply, Val: 1, Data: one})}},
		{"garbage payload", &Msg{Kind: MBatch, Val: 3, Data: bytes.Repeat([]byte{0xff}, 90)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBatch(nil, tc.env); err == nil {
				t.Errorf("decoded successfully, want error")
			}
		})
	}
}

// idempotentByDecoding is what reqIdempotent answers for an envelope,
// stated by decoding it: false for anything DecodeBatch rejects, else
// whether every member's kind is an idempotent request.
func idempotentByDecoding(env *Msg) bool {
	msgs, err := DecodeBatch(nil, env)
	if err != nil {
		return false
	}
	for _, m := range msgs {
		if !kindIdempotent(m.Kind) {
			return false
		}
	}
	return true
}

// TestReqIdempotentWalksHeaders checks that reqIdempotent, which walks
// the member headers in place, agrees with decoding the envelope, and
// allocates nothing doing so.
func TestReqIdempotentWalksHeaders(t *testing.T) {
	fetches := []*Msg{
		{Kind: MFetchInt, Space: byte(amem.Data), Addr: 16, Size: 4},
		{Kind: MFetchBytes, Space: byte(amem.Code), Addr: 32, Size: 4},
		{Kind: MFetchLine, Space: byte(amem.Data), Addr: 0, Size: 256},
		{Kind: MListPlanted},
	}
	plant := &Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: 32, Data: []byte{0, 0, 0, 13}}
	all := encodeMembers(t, fetches...)
	mixed := encodeMembers(t, fetches[0], fetches[1], plant, fetches[2])
	huge := encodeMembers(t, fetches[0])
	binary.LittleEndian.PutUint32(huge[27:], maxDataLen+1)
	n := uint64(len(fetches))
	cases := []struct {
		name string
		env  *Msg
		want bool
	}{
		{"all fetches", &Msg{Kind: MBatch, Val: n, Data: all}, true},
		{"one plant among fetches", &Msg{Kind: MBatch, Val: n, Data: mixed}, false},
		{"truncated member", &Msg{Kind: MBatch, Val: n, Data: all[:len(all)-1]}, false},
		{"truncated header", &Msg{Kind: MBatch, Val: 1, Data: all[:30]}, false},
		{"trailing bytes", &Msg{Kind: MBatch, Val: n, Data: append(all[:len(all):len(all)], 0)}, false},
		{"count exceeds members", &Msg{Kind: MBatch, Val: n + 1, Data: all}, false},
		{"count 0", &Msg{Kind: MBatch, Val: 0, Data: all}, false},
		{"count above MaxBatch", &Msg{Kind: MBatch, Val: MaxBatch + 1, Data: all}, false},
		{"nested envelope", &Msg{Kind: MBatch, Val: 1,
			Data: encodeMembers(t, &Msg{Kind: MBatch, Val: n, Data: all})}, false},
		{"nested reply", &Msg{Kind: MBatch, Val: 1,
			Data: encodeMembers(t, &Msg{Kind: MBatchReply, Val: n, Data: all})}, false},
		{"member over the payload limit", &Msg{Kind: MBatch, Val: 1, Data: huge}, false},
		{"reply envelope", &Msg{Kind: MBatchReply, Val: n, Data: all}, false},
		{"plain fetch", fetches[0], true},
		{"plain plant", plant, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := reqIdempotent(tc.env)
			if got != tc.want {
				t.Errorf("reqIdempotent = %v, want %v", got, tc.want)
			}
			if tc.env.Kind == MBatch {
				if dec := idempotentByDecoding(tc.env); got != dec {
					t.Errorf("reqIdempotent = %v, but decoding the envelope says %v", got, dec)
				}
			}
		})
	}
	for _, env := range []*Msg{cases[0].env, cases[1].env} {
		if a := testing.AllocsPerRun(100, func() { reqIdempotent(env) }); a != 0 {
			t.Errorf("reqIdempotent allocated %v times per call, want 0", a)
		}
	}
}

// TestEncodeBatchLimits checks the encoder refuses what the decoder
// would reject.
func TestEncodeBatchLimits(t *testing.T) {
	fetch := &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: 16, Size: 4}
	if _, err := EncodeBatch(nil, MBatch, nil); err == nil {
		t.Error("empty batch encoded")
	}
	over := make([]Msg, MaxBatch+1)
	for i := range over {
		over[i] = *fetch
	}
	if _, err := EncodeBatch(nil, MBatch, over); err == nil {
		t.Error("oversized batch encoded")
	}
	if _, err := EncodeBatch(nil, MBatch, []Msg{{Kind: MBatch}}); err == nil {
		t.Error("nested envelope encoded")
	}
	if _, err := EncodeBatch(nil, MFetchInt, []Msg{*fetch}); err == nil {
		t.Error("non-envelope kind encoded")
	}
	big := &Msg{Kind: MStoreBytes, Space: byte(amem.Data), Data: make([]byte, maxDataLen/2)}
	if _, err := EncodeBatch(nil, MBatch, []Msg{*big, *big, *big}); err == nil {
		t.Error("envelope over the payload limit encoded")
	}
}

// FuzzDecodeBatch fuzzes the envelope decoder: arbitrary payloads and
// counts must produce errors, never panics, a successful decode must
// yield exactly the advertised member count and re-encode, member by
// member, to exactly its payload, and reqIdempotent's header walk must
// agree with the decode.
func FuzzDecodeBatch(f *testing.F) {
	fetch := &Msg{Kind: MFetchInt, Space: byte(amem.Data), Addr: 16, Size: 4}
	var buf bytes.Buffer
	_ = WriteMsg(&buf, fetch)
	one := buf.Bytes()
	f.Add(uint32(1), one)
	f.Add(uint32(2), append(append([]byte(nil), one...), one...))
	f.Add(uint32(0), []byte{})
	f.Add(uint32(1), one[:len(one)-3])
	f.Add(uint32(600), bytes.Repeat(one, 3))
	f.Add(uint32(7), bytes.Repeat([]byte{0x41}, 64))
	_ = WriteMsg(&buf, &Msg{Kind: MPlantStore, Space: byte(amem.Code), Addr: 32, Data: []byte{0, 0, 0, 13}})
	f.Add(uint32(2), buf.Bytes()) // a fetch and a plant
	f.Fuzz(func(t *testing.T, count uint32, payload []byte) {
		for _, kind := range []MsgKind{MBatch, MBatchReply} {
			env := &Msg{Kind: kind, Val: uint64(count), Data: payload}
			msgs, err := DecodeBatch(nil, env)
			if err == nil && len(msgs) != int(count) {
				t.Fatalf("decoded %d members, envelope said %d", len(msgs), count)
			}
			if err == nil {
				var again []byte
				for i := range msgs {
					again = appendMsg(again, &msgs[i])
				}
				if !bytes.Equal(again, payload) {
					t.Fatalf("%d members re-encode to %d bytes that differ from the %d-byte payload", len(msgs), len(again), len(payload))
				}
			}
			if kind == MBatch && reqIdempotent(env) != idempotentByDecoding(env) {
				t.Fatalf("reqIdempotent = %v, decoding says %v", reqIdempotent(env), idempotentByDecoding(env))
			}
		}
	})
}

// TestCodecRoundTripAllocs: encoding a message into a reused buffer and
// parsing it back allocates nothing, and gives back every field.
func TestCodecRoundTripAllocs(t *testing.T) {
	m := Msg{Kind: MPlantStore, Space: byte(amem.Code), Size: 4, Addr: 0x400100,
		Val: 0x0102030405060708, Code: -3, Sig: 5, Data: []byte{0, 0, 0, 13}}
	buf := appendMsg(nil, &m)
	got, n, err := parseMsg(buf)
	if err != nil || n != len(buf) || n != hdrLen+len(m.Data) {
		t.Fatalf("parse: %d of %d bytes, %v", n, len(buf), err)
	}
	if got.Kind != m.Kind || got.Space != m.Space || got.Size != m.Size || got.Addr != m.Addr ||
		got.Val != m.Val || got.Code != m.Code || got.Sig != m.Sig || !bytes.Equal(got.Data, m.Data) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
	var bad bool
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendMsg(buf[:0], &m)
		got, n, err := parseMsg(buf)
		bad = bad || err != nil || n != len(buf) || got.Val != m.Val || len(got.Data) != len(m.Data)
	})
	if bad {
		t.Fatal("round trip failed inside the allocation count")
	}
	if allocs != 0 {
		t.Errorf("appendMsg and parseMsg allocated %v times per round trip, want 0", allocs)
	}
}

// TestBatchAllocsIndependentOfSize: with the cache off, every member of
// a batch crosses the wire, and a batch of 512 fetches allocates what a
// batch of 2 does, give or take a constant — no member costs a heap
// object on either end of the connection.
func TestBatchAllocsIndependentOfSize(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCaching(false)
	words := uint32(len(code) / 4)
	run := func(n int) float64 {
		var failed error
		allocs := testing.AllocsPerRun(20, func() {
			b := c.NewBatch(n)
			for i := range n {
				addr := machine.TextBase + 4*(uint32(i)%words)
				if i%2 == 0 {
					b.FetchBytes(amem.Code, addr, 4)
				} else {
					b.FetchInt(amem.Code, addr, 4)
				}
			}
			for _, r := range b.Run() {
				if r.Err != nil && failed == nil {
					failed = r.Err
				}
			}
		})
		if failed != nil {
			t.Fatalf("batch of %d: %v", n, failed)
		}
		return allocs
	}
	small, large := run(2), run(MaxBatch)
	if large > small+2 {
		t.Errorf("a batch of %d fetches allocated %v times, a batch of 2 %v", MaxBatch, large, small)
	}
}

// TestBatchResultsOutliveNextRead: a batch's fetched bytes are its own —
// the next batch on the same client, which reuses the connection's read
// buffer (and, with the cache on, changes the ranges served from),
// leaves them as they were.
func TestBatchResultsOutliveNextRead(t *testing.T) {
	for _, caching := range []bool{false, true} {
		a := mips.Little
		code := testProgram(t, a)
		c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
		if err != nil {
			t.Fatal(err)
		}
		c.SetCaching(caching)
		fetch := func(lo uint32) []Result {
			b := c.NewBatch(4)
			for i := range uint32(4) {
				b.FetchBytes(amem.Code, machine.TextBase+lo+4*i, 4)
			}
			return b.Run()
		}
		first := fetch(0)
		var want [][]byte
		for _, r := range first {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			want = append(want, bytes.Clone(r.Data))
		}
		// Overwrite what the first batch fetched, and refetch it and more.
		if err := c.StoreBytes(amem.Code, machine.TextBase, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		fetch(0)
		fetch(16)
		for i, r := range first {
			if !bytes.Equal(r.Data, want[i]) || !bytes.Equal(r.Data, code[4*i:4*i+4]) {
				t.Errorf("caching %v: member %d reads % x after later batches, fetched % x", caching, i, r.Data, want[i])
			}
		}
		c.Close()
	}
}

// TestCacheInvalidationOnContinue is the regression test for the cache
// coherence rule: memory fetched before a continue must be re-fetched
// after it, because the target ran. The test program stores 42 at
// DataBase between its two traps.
func TestCacheInvalidationOnContinue(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Caching() {
		t.Fatal("caching off by default")
	}
	v, err := c.FetchInt(amem.Data, machine.DataBase, 4)
	if err != nil || v != 0 {
		t.Fatalf("before continue: %d, %v", v, err)
	}
	// The second fetch is served from the cache.
	pre := c.Stats()
	if v, err = c.FetchInt(amem.Data, machine.DataBase, 4); err != nil || v != 0 {
		t.Fatalf("cached fetch: %d, %v", v, err)
	}
	post := c.Stats()
	if post.CacheHits <= pre.CacheHits {
		t.Fatalf("second fetch missed the cache (hits %d -> %d)", pre.CacheHits, post.CacheHits)
	}
	if post.RoundTrips != pre.RoundTrips {
		t.Fatalf("cached fetch went to the wire")
	}
	ev, err := c.Continue()
	if err != nil || ev.Exited {
		t.Fatalf("continue: %v %v", ev, err)
	}
	// The target stored 42; a stale cache would still say 0.
	v, err = c.FetchInt(amem.Data, machine.DataBase, 4)
	if err != nil || v != 42 {
		t.Fatalf("after continue: %d, %v (stale cache?)", v, err)
	}
	if got := c.Stats().Invalidations; got < post.Invalidations+1 {
		t.Errorf("invalidations = %d, want > %d", got, post.Invalidations)
	}
}

// TestPlantUnplantCacheCoherence: planting writes through the cached
// code image; unplanting evicts it, so the next fetch sees the
// restored instruction.
func TestPlantUnplantCacheCoherence(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint32(machine.TextBase + 4)
	orig, err := c.FetchBytes(amem.Code, addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	trap := a.BreakInstr()
	if err := c.PlantStore(addr, trap); err != nil {
		t.Fatal(err)
	}
	pre := c.Stats()
	got, err := c.FetchBytes(amem.Code, addr, 4)
	if err != nil || !bytes.Equal(got, trap) {
		t.Fatalf("after plant: %x, %v; want %x", got, err, trap)
	}
	if c.Stats().RoundTrips != pre.RoundTrips {
		t.Error("fetch after plant went to the wire; write-through failed")
	}
	if err := c.UnplantStore(addr); err != nil {
		t.Fatal(err)
	}
	got, err = c.FetchBytes(amem.Code, addr, 4)
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("after unplant: %x, %v; want %x", got, err, orig)
	}
}

// TestStoreWritesThroughCache: a store followed by a fetch of the same
// address returns the stored value without a round trip.
func TestStoreWritesThroughCache(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, _, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the cache around the address first.
	if _, err := c.FetchBytes(amem.Data, machine.DataBase, 32); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreInt(amem.Data, machine.DataBase+4, 4, 0x1234); err != nil {
		t.Fatal(err)
	}
	pre := c.Stats()
	v, err := c.FetchInt(amem.Data, machine.DataBase+4, 4)
	if err != nil || v != 0x1234 {
		t.Fatalf("fetch after store: %#x, %v", v, err)
	}
	if c.Stats().RoundTrips != pre.RoundTrips {
		t.Error("fetch after store went to the wire")
	}
	// And the wire agrees once the cache is dropped.
	c.SetCaching(false)
	if v, err = c.FetchInt(amem.Data, machine.DataBase+4, 4); err != nil || v != 0x1234 {
		t.Fatalf("wire disagrees with cache: %#x, %v", v, err)
	}
}

// TestStatsConcurrentReaders hammers the wire while other goroutines
// snapshot and reset the counters — meaningful only under -race, where
// any unsynchronized counter access fails the build.
func TestStatsConcurrentReaders(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	c, n, _, err := Launch(a, code, make([]byte, 64), machine.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Stats()
					_ = n.Stats.Snapshot()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		b := c.NewBatch(2)
		b.FetchInt(amem.Data, machine.DataBase, 4)
		b.FetchBytes(amem.Code, machine.TextBase, 8)
		for _, r := range b.Run() {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if i%50 == 0 {
			c.ResetStats()
		}
	}
	close(stop)
	wg.Wait()
}

// TestFetchLineTruncatesAtSegmentEnd: a readahead line that runs past
// the end of its segment comes back short instead of failing, an exact
// fetch of the same span still fails, and a line aimed at unmapped
// memory is an error. The request also rides inside envelopes.
func TestFetchLineTruncatesAtSegmentEnd(t *testing.T) {
	a := mips.Little
	code := testProgram(t, a)
	p := machine.New(a, code, make([]byte, 64), machine.TextBase)
	n := New(p)
	n.Start()
	conn, shutdown := rawSession(t, n)
	defer shutdown()
	ask := func(m *Msg) *Msg {
		t.Helper()
		if err := WriteMsg(conn, m); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// The data segment is 64 bytes; ask for a 256-byte line at +32.
	rep := ask(&Msg{Kind: MFetchLine, Space: byte(amem.Data), Addr: machine.DataBase + 32, Size: 256})
	if rep.Kind != MBytes || len(rep.Data) != 32 {
		t.Fatalf("line past segment end: %v (%d bytes), want 32 bytes", rep.Kind, len(rep.Data))
	}
	// The same span as an exact fetch must still fail.
	if rep := ask(&Msg{Kind: MFetchBytes, Space: byte(amem.Data), Addr: machine.DataBase + 32, Size: 256}); rep.Kind != MError {
		t.Fatalf("exact fetch past segment end: %v, want MError", rep.Kind)
	}
	// A line wholly inside the segment comes back full-length.
	if rep := ask(&Msg{Kind: MFetchLine, Space: byte(amem.Data), Addr: machine.DataBase, Size: 16}); rep.Kind != MBytes || len(rep.Data) != 16 {
		t.Fatalf("interior line: %v (%d bytes), want 16", rep.Kind, len(rep.Data))
	}
	// Unmapped base: error, like any fetch.
	if rep := ask(&Msg{Kind: MFetchLine, Space: byte(amem.Data), Addr: 0x100, Size: 64}); rep.Kind != MError {
		t.Fatalf("unmapped line: %v, want MError", rep.Kind)
	}
	// Inside an envelope it behaves the same.
	env, err := EncodeBatch(nil, MBatch, []Msg{
		{Kind: MFetchLine, Space: byte(amem.Data), Addr: machine.DataBase + 48, Size: 256},
		{Kind: MFetchInt, Space: byte(amem.Data), Addr: machine.DataBase, Size: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep = ask(&env)
	if rep.Kind != MBatchReply {
		t.Fatalf("envelope reply: %v", rep.Kind)
	}
	subs, err := DecodeBatch(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if subs[0].Kind != MBytes || len(subs[0].Data) != 16 {
		t.Fatalf("batched line: %v (%d bytes), want 16", subs[0].Kind, len(subs[0].Data))
	}
	if subs[1].Kind != MValue {
		t.Fatalf("batched fetch beside line: %v", subs[1].Kind)
	}
}

// TestFetchIntAtSegmentEdge: with the full optimized transport on, a
// fetch of the last word of a segment works (the readahead line comes
// back truncated but covering it), and a fetch straddling the segment
// end fails with the same error the plain transport reports.
func TestFetchIntAtSegmentEdge(t *testing.T) {
	a := mips.Little
	run := func(optimized bool) (uint64, error, string) {
		code := testProgram(t, a)
		p := machine.New(a, code, make([]byte, 64), machine.TextBase)
		n := New(p)
		n.Start()
		c, err := Pair(n)
		if err != nil {
			t.Fatal(err)
		}
		c.SetBatching(optimized)
		c.SetCaching(optimized)
		v, verr := c.FetchInt(amem.Data, machine.DataBase+60, 4)
		if verr != nil {
			t.Fatalf("optimized=%v: last word: %v", optimized, verr)
		}
		_, serr := c.FetchInt(amem.Data, machine.DataBase+62, 4)
		if serr == nil {
			t.Fatalf("optimized=%v: straddling fetch succeeded", optimized)
		}
		return v, verr, serr.Error()
	}
	vOn, _, errOn := run(true)
	vOff, _, errOff := run(false)
	if vOn != vOff {
		t.Errorf("last-word value differs: %d optimized, %d plain", vOn, vOff)
	}
	if errOn != errOff {
		t.Errorf("straddle error differs:\noptimized: %s\nplain:     %s", errOn, errOff)
	}
}
