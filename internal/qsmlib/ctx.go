package qsmlib

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wire message types of the sync protocol.

type planMsg struct {
	putWords int
	getReqs  int
}

type putSeg struct {
	h    core.Handle
	off  int   // contiguous start; -1 for indexed
	idx  []int // nil for contiguous
	vals []int64
}

type getReq struct {
	reqID int
	h     core.Handle
	off   int // contiguous start; -1 for indexed
	n     int
	idx   []int
}

type syncMsg struct {
	puts []putSeg
	reqs []getReq
}

type replyItem struct {
	reqID int
	vals  []int64
}

type replyMsg struct {
	items []replyItem
}

type pendingGet struct {
	dst []int64
	pos []int // reply value k lands in dst[pos[k]]; nil means dst[k]
}

// Software cost constants for local queue and memory work (cycles); the
// heavyweight buffer copies are charged by the msg layer.
const (
	enqueueFixed   = 16
	enqueuePerWord = 2
	localPerWord   = 4
	localPerSeg    = 16
)

// qctx is the per-node core.Ctx of the simulated machine.
type qctx struct {
	m    *Machine
	node *machine.Node
	comm *msg.Comm
	gen  int

	outPuts  [][]putSeg
	outReqs  [][]getReq
	selfReqs []getReq
	pending  []pendingGet

	// Scratch reused across phases. Messages built from it are consumed by
	// their receivers before the barrier that ends the phase, so nothing
	// sent is rewritten while a peer can still read it.
	bk      core.Buckets // owner grouping for scattered puts and gets
	order   []int        // exchange schedule
	expect  []bool       // per peer: a data message follows the plan
	in      [][]putSeg   // per source: puts received this phase
	plans   []planMsg
	out     []syncMsg
	replies []replyMsg

	commCycles sim.Time
	timeline   []PhaseSpan

	// Observability: nil-safe handles plus the last Sync's end time, which
	// delimits the compute span preceding the next Sync.
	rec           *obs.Recorder
	obsSyncs      *obs.Counter
	obsSyncCycles *obs.Histogram
	obsPutWords   *obs.Histogram
	obsGetWords   *obs.Histogram
	lastSyncEnd   sim.Time
}

// PhaseSpan records one Sync call on one node for the timeline facility.
type PhaseSpan struct {
	Phase      int
	Start, End sim.Time
	PutWords   int
	GetWords   int
}

var _ core.Ctx = (*qctx)(nil)

func newQctx(m *Machine, n *machine.Node) *qctx {
	p := m.P()
	c := &qctx{
		m:       m,
		node:    n,
		comm:    msg.NewComm(n, m.opts.SW),
		outPuts: make([][]putSeg, p),
		outReqs: make([][]getReq, p),
		order:   peerOrder(p, n.ID(), m.opts.NaiveExchange),
		expect:  make([]bool, p),
		in:      make([][]putSeg, p),
		plans:   make([]planMsg, p),
		out:     make([]syncMsg, p),
		replies: make([]replyMsg, p),
	}
	if rec := m.opts.Obs; rec != nil {
		c.rec = rec
		c.comm.Observe(rec)
		c.obsSyncs = rec.Counter("qsmlib", "syncs", "")
		c.obsSyncCycles = rec.Histogram("qsmlib", "sync_cycles", "", obs.ExpBuckets(1024, 2, 16))
		c.obsPutWords = rec.Histogram("qsmlib", "phase_put_words", "", obs.ExpBuckets(1, 4, 12))
		c.obsGetWords = rec.Histogram("qsmlib", "phase_get_words", "", obs.ExpBuckets(1, 4, 12))
	}
	return c
}

func (c *qctx) ID() int          { return c.node.ID() }
func (c *qctx) P() int           { return c.m.P() }
func (c *qctx) Rand() *rand.Rand { return c.node.Proc().Rand() }

func (c *qctx) Register(name string, n int) core.Handle {
	return c.m.register(name, n, core.LayoutSpec{})
}

// RegisterSpec registers an array with an explicit layout.
func (c *qctx) RegisterSpec(name string, n int, spec core.LayoutSpec) core.Handle {
	return c.m.register(name, n, spec)
}

// Free un-registers an array.
func (c *qctx) Free(h core.Handle) {
	c.busyComm(enqueueFixed)
	c.m.free(h)
}

// spansCheap reports whether per-owner spans of the array are O(p).
func spansCheap(a *array) bool {
	switch a.lay.Kind {
	case core.LayoutBlocked, core.LayoutDefault, core.LayoutSingle:
		return true
	}
	return false
}

// ReadLocal immediately reads from this node's own partition.
func (c *qctx) ReadLocal(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(dst))
	if !a.lay.OwnsRange(c.ID(), off, len(dst)) {
		panic(fmt.Sprintf("qsmlib: ReadLocal of %q[%d:%d) not owned by node %d", a.name, off, off+len(dst), c.ID()))
	}
	copy(dst, a.data[off:off+len(dst)])
	c.node.Busy(sim.Time(localPerSeg + localPerWord*len(dst)))
}

// WriteLocal immediately writes into this node's own partition.
func (c *qctx) WriteLocal(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(src))
	if !a.lay.OwnsRange(c.ID(), off, len(src)) {
		panic(fmt.Sprintf("qsmlib: WriteLocal of %q[%d:%d) not owned by node %d", a.name, off, off+len(src), c.ID()))
	}
	copy(a.data[off:off+len(src)], src)
	c.node.Busy(sim.Time(localPerSeg + localPerWord*len(src)))
}

// Compute charges local algorithm work to the node's processor model.
func (c *qctx) Compute(b cpu.OpBlock) { c.node.Compute(b) }

// busyComm charges cycles of local library work, counted as communication.
func (c *qctx) busyComm(cycles sim.Time) {
	c.node.Busy(cycles)
	c.commCycles += cycles
}

func (c *qctx) bounds(a *array, off, n int) {
	if off < 0 || off+n > len(a.data) {
		panic(fmt.Sprintf("qsmlib: range [%d,%d) out of bounds for %q (len %d)", off, off+n, a.name, len(a.data)))
	}
}

// Put enqueues a contiguous write, split into per-owner segments.
func (c *qctx) Put(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(src))
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(src)))
	if spansCheap(a) {
		base := off
		a.lay.Spans(off, len(src), func(o, so, cnt int) {
			vals := make([]int64, cnt)
			copy(vals, src[so-base:so-base+cnt])
			c.outPuts[o] = append(c.outPuts[o], putSeg{h: h, off: so, vals: vals})
		})
		return
	}
	c.putScattered(a, h, seqIdx(off, len(src)), src)
}

// PutIndexed enqueues scattered writes.
func (c *qctx) PutIndexed(h core.Handle, idx []int, src []int64) {
	if len(idx) != len(src) {
		panic(fmt.Sprintf("qsmlib: PutIndexed len(idx)=%d != len(src)=%d", len(idx), len(src)))
	}
	if len(idx) == 0 {
		return
	}
	a := c.m.arr(h)
	for _, ix := range idx {
		if ix < 0 || ix >= len(a.data) {
			panic(fmt.Sprintf("qsmlib: index %d out of range for %q (len %d)", ix, a.name, len(a.data)))
		}
	}
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(src)))
	c.putScattered(a, h, idx, src)
}

// putScattered groups one call's writes by owner into a single idx and a
// single vals allocation, sliced per owner in ascending owner order; within
// an owner the words keep call order, so the last write in a call wins.
func (c *qctx) putScattered(a *array, h core.Handle, idx []int, src []int64) {
	b := &c.bk
	a.lay.Bucket(idx, b)
	gIdx := make([]int, len(idx))
	gVals := make([]int64, len(idx))
	for j, k := range b.Order {
		gIdx[j] = idx[k]
		gVals[j] = src[k]
	}
	for o := range c.outPuts {
		lo, hi := b.Start[o], b.Start[o+1]
		if lo < hi {
			c.outPuts[o] = append(c.outPuts[o], putSeg{h: h, off: -1, idx: gIdx[lo:hi:hi], vals: gVals[lo:hi:hi]})
		}
	}
}

// Get enqueues a contiguous read.
func (c *qctx) Get(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(dst))
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(dst)))
	if spansCheap(a) {
		base := off
		a.lay.Spans(off, len(dst), func(o, so, cnt int) {
			c.addGet(o, getReq{h: h, off: so, n: cnt}, pendingGet{dst: dst[so-base : so-base+cnt]})
		})
		return
	}
	c.getScattered(a, h, seqIdx(off, len(dst)), dst)
}

// GetIndexed enqueues scattered reads.
func (c *qctx) GetIndexed(h core.Handle, idx []int, dst []int64) {
	if len(idx) != len(dst) {
		panic(fmt.Sprintf("qsmlib: GetIndexed len(idx)=%d != len(dst)=%d", len(idx), len(dst)))
	}
	if len(idx) == 0 {
		return
	}
	a := c.m.arr(h)
	for _, ix := range idx {
		if ix < 0 || ix >= len(a.data) {
			panic(fmt.Sprintf("qsmlib: index %d out of range for %q (len %d)", ix, a.name, len(a.data)))
		}
	}
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(dst)))
	c.getScattered(a, h, idx, dst)
}

// getScattered is putScattered's read side, with one idx and one pos
// allocation per call.
func (c *qctx) getScattered(a *array, h core.Handle, idx []int, dst []int64) {
	b := &c.bk
	a.lay.Bucket(idx, b)
	gIdx := make([]int, len(idx))
	pos := make([]int, len(idx))
	for j, k := range b.Order {
		gIdx[j] = idx[k]
		pos[j] = int(k)
	}
	for o := range c.outReqs {
		lo, hi := b.Start[o], b.Start[o+1]
		if lo < hi {
			c.addGet(o, getReq{h: h, off: -1, idx: gIdx[lo:hi:hi]}, pendingGet{dst: dst, pos: pos[lo:hi:hi]})
		}
	}
}

func (c *qctx) addGet(owner int, rq getReq, pg pendingGet) {
	rq.reqID = len(c.pending)
	c.pending = append(c.pending, pg)
	if owner == c.ID() {
		c.selfReqs = append(c.selfReqs, rq)
		return
	}
	c.outReqs[owner] = append(c.outReqs[owner], rq)
}

func seqIdx(off, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = off + i
	}
	return idx
}

// gather reads the request's words from the (pre-phase) array state.
func (c *qctx) gather(rq getReq) []int64 {
	a := c.m.arr(rq.h)
	if rq.idx == nil {
		vals := make([]int64, rq.n)
		copy(vals, a.data[rq.off:rq.off+rq.n])
		return vals
	}
	vals := make([]int64, len(rq.idx))
	for i, ix := range rq.idx {
		vals[i] = a.data[ix]
	}
	return vals
}

// scatter writes reply values into the requester's destination.
func scatter(pg pendingGet, vals []int64) {
	if pg.pos == nil {
		copy(pg.dst, vals)
		return
	}
	for k, v := range vals {
		pg.dst[pg.pos[k]] = v
	}
}

func words(segs []putSeg) int {
	w := 0
	for _, s := range segs {
		w += len(s.vals)
	}
	return w
}

func smBytes(sm *syncMsg) int {
	b := 0
	for _, s := range sm.puts {
		b += 16 + 8*len(s.vals)
		if s.idx != nil {
			b += 8 * len(s.idx)
		}
	}
	for _, r := range sm.reqs {
		b += 24
		if r.idx != nil {
			b += 8 * len(r.idx)
		}
	}
	return b
}

func replyBytes(rm *replyMsg) int {
	b := 0
	for _, it := range rm.items {
		b += 16 + 8*len(it.vals)
	}
	return b
}

// peerOrder returns node me's exchange schedule: staggered (me talks to
// (me+r) mod p in round r) unless naive, which walks peers in id order.
func peerOrder(p, me int, naive bool) []int {
	order := make([]int, 0, p-1)
	if naive {
		for peer := 0; peer < p; peer++ {
			if peer != me {
				order = append(order, peer)
			}
		}
		return order
	}
	for r := 1; r < p; r++ {
		order = append(order, (me+r)%p)
	}
	return order
}

// resetPhase empties the phase queues for reuse. It runs only after the
// barrier, because peers read this node's puts, requests and replies until
// they reach it; the entries are zeroed so their buffers can be collected.
func (c *qctx) resetPhase() {
	for i := range c.outPuts {
		c.outPuts[i] = reuse(c.outPuts[i])
		c.outReqs[i] = reuse(c.outReqs[i])
		c.replies[i].items = reuse(c.replies[i].items)
	}
	clear(c.out)
	c.selfReqs = reuse(c.selfReqs)
	c.pending = reuse(c.pending)
}

func reuse[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// Sync runs the bulk-synchronous exchange protocol described in the package
// comment and ends the phase.
func (c *qctx) Sync() {
	t0 := c.node.Now()
	span := PhaseSpan{Phase: c.gen, Start: t0}
	for _, segs := range c.outPuts {
		span.PutWords += words(segs) // outPuts[me] holds the self puts
	}
	span.GetWords = len(c.pending)
	p, me := c.P(), c.ID()
	order := c.order
	gen := c.gen
	c.gen++
	tagPlan, tagData, tagReply := 3*gen, 3*gen+1, 3*gen+2

	// 1. Distribute the communications plan.
	for _, peer := range order {
		pm := &c.plans[peer]
		*pm = planMsg{putWords: words(c.outPuts[peer]), getReqs: len(c.outReqs[peer])}
		c.comm.Send(peer, tagPlan, 16, pm)
	}
	for r := 1; r < p; r++ {
		peer := (me - r + p) % p
		pm := c.comm.Recv(peer, tagPlan).Payload.(*planMsg)
		c.expect[peer] = pm.putWords > 0 || pm.getReqs > 0
	}

	// 2. Data exchange (staggered by default): puts and get requests.
	for _, peer := range order {
		if len(c.outPuts[peer]) == 0 && len(c.outReqs[peer]) == 0 {
			continue
		}
		sm := &c.out[peer]
		*sm = syncMsg{puts: c.outPuts[peer], reqs: c.outReqs[peer]}
		c.comm.Send(peer, tagData, smBytes(sm), sm)
	}

	// 3. Receive data; serve get replies from pre-phase state.
	for r := 1; r < p; r++ {
		peer := (me - r + p) % p
		if !c.expect[peer] {
			continue
		}
		sm := c.comm.Recv(peer, tagData).Payload.(*syncMsg)
		c.in[peer] = sm.puts
		if len(sm.reqs) > 0 {
			rm := &c.replies[peer]
			w := 0
			for _, rq := range sm.reqs {
				vals := c.gather(rq)
				w += len(vals)
				rm.items = append(rm.items, replyItem{reqID: rq.reqID, vals: vals})
			}
			c.node.Busy(sim.Time(localPerSeg*len(sm.reqs) + localPerWord*w))
			c.comm.Send(peer, tagReply, replyBytes(rm), rm)
		}
	}

	// 4. Receive replies and fill destinations.
	for _, peer := range order {
		if len(c.outReqs[peer]) == 0 {
			continue
		}
		rm := c.comm.Recv(peer, tagReply).Payload.(*replyMsg)
		w := 0
		for _, it := range rm.items {
			scatter(c.pending[it.reqID], it.vals)
			w += len(it.vals)
		}
		c.node.Busy(sim.Time(localPerSeg*len(rm.items) + localPerWord*w))
	}

	// 5. Serve this node's own-partition gets.
	if len(c.selfReqs) > 0 {
		w := 0
		for _, rq := range c.selfReqs {
			vals := c.gather(rq)
			w += len(vals)
			scatter(c.pending[rq.reqID], vals)
		}
		c.node.Busy(sim.Time(localPerSeg*len(c.selfReqs) + localPerWord*w))
	}

	// 6. Apply writes in source order (self included), so concurrent writes
	// to one word resolve deterministically.
	applied := 0
	for src := 0; src < p; src++ {
		segs := c.in[src]
		if src == me {
			segs = c.outPuts[me]
		}
		for _, s := range segs {
			a := c.m.arr(s.h)
			if s.idx == nil {
				copy(a.data[s.off:s.off+len(s.vals)], s.vals)
			} else {
				for i, ix := range s.idx {
					a.data[ix] = s.vals[i]
				}
			}
			applied += len(s.vals)
		}
		c.in[src] = nil
	}
	if applied > 0 {
		c.node.Busy(sim.Time(localPerWord * applied))
	}

	// 7. Synchronize, then reset the phase state.
	if c.m.opts.TreeBarrier {
		c.comm.TreeBarrier()
	} else {
		c.comm.Barrier()
	}
	c.resetPhase()
	c.commCycles += c.node.Now() - t0
	span.End = c.node.Now()
	c.timeline = append(c.timeline, span)

	c.obsSyncs.Inc()
	c.obsSyncCycles.Observe(float64(span.End - t0))
	c.obsPutWords.Observe(float64(span.PutWords))
	c.obsGetWords.Observe(float64(span.GetWords))
	if c.rec.Tracing() {
		if t0 > c.lastSyncEnd {
			c.rec.Span(tracePid, me, "qsmlib", "compute", uint64(c.lastSyncEnd), uint64(t0),
				obs.Arg{Key: "phase", Val: int64(gen)})
		}
		c.rec.Span(tracePid, me, "qsmlib", fmt.Sprintf("sync %d", gen), uint64(t0), uint64(span.End),
			obs.Arg{Key: "phase", Val: int64(gen)},
			obs.Arg{Key: "put_words", Val: int64(span.PutWords)},
			obs.Arg{Key: "get_words", Val: int64(span.GetWords)})
	}
	c.lastSyncEnd = span.End
}
