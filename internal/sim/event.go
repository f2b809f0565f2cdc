package sim

// event is a scheduled callback. Events compare by (at, seq) so that equal
// times preserve scheduling order, making runs reproducible. Fired events are
// recycled through the engine's free list, so a caller must not retain an
// *event past its firing time; Cancel on a still-pending event is fine.
//
// The hot cases carry their target directly instead of wrapping it in a
// closure, so the per-event closure allocation disappears from the engine's
// hot path: proc resumes a blocked goroutine process, sp steps a
// state-machine process, and ch/val deliver a value to a channel after a
// wire delay (the "shuttle" behind Chan.SendAfter and every simulated
// message in flight). fn remains for general scheduled callbacks.
type event struct {
	at        Time
	seq       uint64
	fn        func()
	proc      *Proc
	sp        *StepProc
	ch        *Chan
	val       interface{}
	cancelled bool
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// event is a no-op.
func (ev *event) Cancel() { ev.cancelled = true }

// eventLess orders events by (at, seq): the invariant both pending-event
// stores (the 4-ary heap and the same-time ring) preserve.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a concrete 4-ary min-heap ordered by (at, seq). The wide node
// halves the tree depth of the binary heap it replaced, and the monomorphic
// methods avoid container/heap's interface boxing on every push and pop.
type eventHeap struct{ evs []*event }

func (h *eventHeap) Len() int { return len(h.evs) }

// peek returns the earliest event without removing it, or nil if empty.
func (h *eventHeap) peek() *event {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

// push inserts ev, sifting it up to its (at, seq) position.
func (h *eventHeap) push(ev *event) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(h.evs[i], h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

// popMin removes and returns the earliest event (cancelled or not), or nil if
// the heap is empty. Skipping cancelled events is the engine's job, which
// also recycles them.
func (h *eventHeap) popMin() *event {
	n := len(h.evs)
	if n == 0 {
		return nil
	}
	min := h.evs[0]
	last := h.evs[n-1]
	h.evs[n-1] = nil
	h.evs = h.evs[:n-1]
	if n--; n > 0 {
		// Sift last down from the root's hole.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventLess(h.evs[c], h.evs[best]) {
					best = c
				}
			}
			if !eventLess(h.evs[best], last) {
				break
			}
			h.evs[i] = h.evs[best]
			i = best
		}
		h.evs[i] = last
	}
	return min
}

// eventRing is the engine's same-timestamp cohort FIFO: events scheduled for
// the current instant bypass the time-ordered scheduler entirely and drain
// in append order. Because the engine assigns seq monotonically, append
// order IS (at, seq) order for events that share the current timestamp, so
// the ring preserves the determinism invariant while turning the O(log n)
// sift per same-time event into an O(1) ring operation.
type eventRing struct {
	evs   []*event
	head  int
	count int
}

func (r *eventRing) push(ev *event) {
	if r.count == len(r.evs) {
		r.grow()
	}
	r.evs[(r.head+r.count)%len(r.evs)] = ev
	r.count++
}

func (r *eventRing) pop() *event {
	if r.count == 0 {
		return nil
	}
	ev := r.evs[r.head]
	r.evs[r.head] = nil
	r.head = (r.head + 1) % len(r.evs)
	r.count--
	return ev
}

func (r *eventRing) grow() {
	capc := 2 * len(r.evs)
	if capc < 16 {
		capc = 16
	}
	nb := make([]*event, capc)
	for i := 0; i < r.count; i++ {
		nb[i] = r.evs[(r.head+i)%len(r.evs)]
	}
	r.evs = nb
	r.head = 0
}
