package sim

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"rtvirt/internal/clone"
	"rtvirt/internal/runner"
	"rtvirt/internal/simtime"
)

// This file implements sharded (conservative-PDES) execution: a ShardSet
// holds one Simulator per shard (logical process — in the cluster model,
// one per host), and advances them concurrently in lookahead windows.
//
// The synchronization protocol is classic conservative null-message-free
// windowing, generalized to a per-edge lookahead matrix (distance-matrix
// synchronization). Every declared directed shard pair (j→i) has a
// lookahead L(j→i): a message emitted by j at local time t arrives no
// earlier than t + L(j→i), and PostRemote enforces exactly that edge's
// bound. Let D(j,i) be the min-plus shortest-walk distance from j to i
// over the edge lookaheads — with the diagonal D(i,i) the shortest cycle
// through i, NOT zero, since a walk must use at least one edge. Each
// barrier round, shard i may fire its events strictly below its window
// bound
//
//	B_i = min over all shards j of  t_j + D(j,i)
//
// where t_j is shard j's earliest pending event time at the barrier.
// Walk distances (not single edges) are what make this safe: an idle
// upstream j can be woken by a message from some k and then relay into i
// earlier than its own t_j suggests — the chain k→j→i is a walk, and its
// arrival is ≥ t_k + D(k,i). The diagonal matters for the same reason:
// i's own output can boomerang back along a cycle, so i may only run
// t_i + D(i,i) ahead of itself. Safety follows by induction on rounds:
// any message ultimately originates from an event that was in some
// shard's queue at the barrier, every hop adds at least its edge's
// lookahead, and B is monotone across barriers (mail lowers t_j only to
// ≥ t_k + D(k,j), and D obeys the triangle inequality, so no min term
// ever drops below a previously-published bound). Progress: the
// globally-earliest shard m always has t_m < B_m (every term is
// ≥ t_m + D > t_m), so every round fires at least one event. Shards that
// nothing reaches — no inbound walk at all — have B = ∞ and run straight
// to the horizon; shards whose upstreams sit far in the future run
// correspondingly far ahead instead of stalling at a global minimum.
//
// The topology is whatever the owner declares through SetEdgeLookahead:
// only declared edges may carry messages (PostRemote panics otherwise),
// undeclared pairs impose no window constraint, and the coordinator
// prunes its per-round work to candidate shards — the previous round's
// active set, shards that just received mail, and the shards reachable
// from the actives — since no other shard's bound or next-time can have
// changed. A complete graph at one lookahead L is the classic uniform
// protocol: D(j,i) = L off-diagonal and D(i,i) = 2L, so every shard but
// the earliest runs to T + L (T = global min) and the earliest to
// min(second + L, T + 2L). Edges may be declared between runs; RunUntil
// reseals the topology each time.
//
// Coordinator costs are kept off the O(shards)-per-window path: shard
// next-times live in a 4-ary min-heap (shardHeap), so termination and
// window selection are O(active·log n); the barrier drain merges
// per-outbox sorted runs through a k-way heap instead of re-sorting a
// global batch; and multi-group execution reuses persistent workers
// through a sense-reversing barrier (runner.BarrierPool) instead of
// paying a pool handoff per window.
//
// Determinism does not depend on how shards are grouped onto executors:
// each shard's intra-window execution is single-threaded on its own
// queue, window bounds are computed by the coordinator as a pure function
// of the global event population, and the barrier drain orders messages
// by (arrival time, source shard, target shard, emission counter) before
// assigning fresh seqs in the target queue. Runs with 1, 2, 4, or 8
// executor groups are therefore bit-identical — the golden the sharded
// cluster tests pin.

// Shard is one logical process of a sharded simulation: its own Simulator
// (clock, queue, RNG, handlers) plus an outbox of cross-shard messages
// awaiting the next barrier.
type Shard struct {
	id  int
	set *ShardSet
	sim *Simulator

	outbox []remoteMsg
	// outboxSorted means the outbox is in msgLess order; executors sort
	// their shards' outboxes in parallel at the end of each window so the
	// coordinator's drain only merges.
	outboxSorted bool
	// edgeSeq[to] counts messages emitted on the (this shard → to) edge —
	// a per-edge lamport-style counter that makes the barrier drain order
	// (and hence the fresh seqs assigned in the target queue) independent
	// of executor grouping.
	edgeSeq []uint64
}

// remoteMsg is one buffered cross-shard message.
type remoteMsg struct {
	at   simtime.Time
	from int32
	to   int32
	n    uint64 // per-(from,to)-edge emission counter
	p    Payload
}

// msgLess is the global delivery order: the key is unique per message and
// depends only on simulation state, never on executor grouping.
func msgLess(a, b *remoteMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.to != b.to {
		return a.to < b.to
	}
	return a.n < b.n
}

// edgeRef is one term of a shard's window-bound min in the sealed
// reachability lists: a source shard and the min-plus walk distance from
// it (for the diagonal term, the shortest cycle back to the shard).
type edgeRef struct {
	src int32
	l   simtime.Duration
}

// satAddDur adds two walk distances, saturating at Infinite.
func satAddDur(a, b simtime.Duration) simtime.Duration {
	if a == simtime.Infinite || b == simtime.Infinite {
		return simtime.Infinite
	}
	if s := a + b; s >= a {
		return s
	}
	return simtime.Infinite
}

// ShardSet owns the shards of one sharded simulation and coordinates
// their windowed execution.
type ShardSet struct {
	lookahead simtime.Duration
	shards    []*Shard

	// edges maps edgeKey(from, to) to that edge's lookahead.
	edges map[uint64]simtime.Duration

	windows uint64
	inRun   bool

	// Per-run coordinator state, rebuilt by RunUntil and reused across
	// windows. All of it is written by the coordinator between barriers;
	// executors only read active/bounds/curEnd/curGroups during a round.
	heap      shardHeap
	keys      []simtime.Time // heap key storage, indexed by shard ID
	bounds    []simtime.Time // per-shard window bound, indexed by shard ID
	inbound   [][]edgeRef    // sealed adjacency
	outbound  [][]int32
	allIDs    []int32
	active    []int32 // this round's active shards, ID order
	actPrev   []int32 // previous round's active shards
	cand      []int32 // candidate scratch
	candEpoch []uint64
	epoch     uint64
	mailed    []int32 // shards that received mail in the last drain
	mailEpoch []uint64
	mailRound uint64
	runs      []int32 // drain scratch: shards with pending outboxes
	runPos    []int32 // drain scratch: per-run read cursor
	mergeIdx  []int32 // drain scratch: k-way merge heap of run slots
	curEnd    simtime.Time
	curGroups int
}

// edgeKey packs a directed shard pair into the edges map key.
func edgeKey(from, to int) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// NewShardSet creates an empty shard set with the given global lookahead:
// the floor its owner declares edges at (Lookahead reports it). It must
// be positive (a zero lookahead admits no concurrency: every window would
// be empty). The set starts with no edges.
func NewShardSet(lookahead simtime.Duration) *ShardSet {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard set needs a positive lookahead, got %v", lookahead))
	}
	return &ShardSet{lookahead: lookahead}
}

// Lookahead reports the global lookahead the set was created with.
func (ss *ShardSet) Lookahead() simtime.Duration { return ss.lookahead }

// SetEdgeLookahead declares the directed edge from→to with lookahead d:
// every PostRemote on that edge must arrive at least d after the sender's
// clock. Only declared edges exist. Redeclaring an edge overwrites its
// lookahead.
func (ss *ShardSet) SetEdgeLookahead(from, to int, d simtime.Duration) {
	if ss.inRun {
		panic("sim: SetEdgeLookahead during RunUntil")
	}
	if d <= 0 {
		panic(fmt.Sprintf("sim: edge lookahead must be positive, got %v for edge %d->%d", d, from, to))
	}
	if from < 0 || from >= len(ss.shards) {
		panic(fmt.Sprintf("sim: SetEdgeLookahead from unknown shard %d (have %d shards)", from, len(ss.shards)))
	}
	if to < 0 || to >= len(ss.shards) {
		panic(fmt.Sprintf("sim: SetEdgeLookahead to unknown shard %d (have %d shards)", to, len(ss.shards)))
	}
	if from == to {
		panic(fmt.Sprintf("sim: SetEdgeLookahead self-edge %d->%d (local work uses PostAt and needs no lookahead)", from, to))
	}
	if ss.edges == nil {
		ss.edges = make(map[uint64]simtime.Duration)
	}
	ss.edges[edgeKey(from, to)] = d
}

// EdgeLookahead reports the lookahead PostRemote enforces on from→to: the
// declared value, or 0 if the edge does not exist.
func (ss *ShardSet) EdgeLookahead(from, to int) simtime.Duration {
	return ss.edges[edgeKey(from, to)]
}

// NewShard adds a shard running on a fresh Simulator seeded with seed.
// Shards must all be added before the first Run; their creation order
// defines their IDs.
func (ss *ShardSet) NewShard(seed uint64) *Shard {
	if ss.inRun {
		panic("sim: NewShard during RunUntil")
	}
	sh := &Shard{id: len(ss.shards), set: ss, sim: New(seed)}
	ss.shards = append(ss.shards, sh)
	for _, s := range ss.shards {
		for len(s.edgeSeq) < len(ss.shards) {
			s.edgeSeq = append(s.edgeSeq, 0)
		}
	}
	return sh
}

// Shards returns the shards in ID order.
func (ss *ShardSet) Shards() []*Shard { return ss.shards }

// Windows reports how many conservative windows have executed.
func (ss *ShardSet) Windows() uint64 { return ss.windows }

// EventsFired sums the event counters across shards.
func (ss *ShardSet) EventsFired() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		n += sh.sim.EventsFired()
	}
	return n
}

// Now reports the earliest shard clock — the global simulation time.
func (ss *ShardSet) Now() simtime.Time {
	if len(ss.shards) == 0 {
		return 0
	}
	min := ss.shards[0].sim.Now()
	for _, sh := range ss.shards[1:] {
		if t := sh.sim.Now(); t < min {
			min = t
		}
	}
	return min
}

// ID reports the shard's position in its set.
func (sh *Shard) ID() int { return sh.id }

// Sim exposes the shard's simulator. Handlers running on it may touch
// only state owned by this shard; anything cross-shard goes through
// PostRemote.
func (sh *Shard) Sim() *Simulator { return sh.sim }

// PostRemote buffers a typed event for delivery into another shard's
// queue at the absolute instant at. The arrival must respect the edge's
// lookahead (at ≥ now + L(this→to)): that bound is exactly what lets the
// target shard run its window without waiting for this one. The edge
// must have been declared — undeclared pairs are non-edges the window
// bounds ignore, so a message on one could rewind the target. Messages are held in the sender's outbox and merged into
// the target queue at the next barrier, in an order independent of
// executor grouping. Posting to the shard itself panics — local work uses
// PostAt and needs no lookahead.
func (sh *Shard) PostRemote(to *Shard, at simtime.Time, p Payload) {
	if to == nil || to.set != sh.set {
		panic("sim: PostRemote to a shard of a different set")
	}
	if to == sh {
		panic("sim: PostRemote to own shard (use PostAt)")
	}
	l, ok := sh.set.edges[edgeKey(sh.id, to.id)]
	if !ok {
		panic(fmt.Sprintf("sim: PostRemote on undeclared edge %d->%d (declare its lookahead with SetEdgeLookahead)",
			sh.id, to.id))
	}
	if min := sh.sim.Now().Add(l); at < min {
		panic(fmt.Sprintf("sim: PostRemote at %v violates lookahead %v on edge %d->%d (now %v, earliest legal %v)",
			at, l, sh.id, to.id, sh.sim.Now(), min))
	}
	sh.edgeSeq[to.id]++
	sh.outbox = append(sh.outbox, remoteMsg{
		at:   at,
		from: int32(sh.id),
		to:   int32(to.id),
		n:    sh.edgeSeq[to.id],
		p:    p,
	})
	sh.outboxSorted = false
}

// sortOutbox puts the outbox in msgLess order. Within one outbox the key
// reduces to (at, to, n), still unique, so the result is deterministic.
// Idempotent: executors call it at the end of their window share, the
// drain calls it again only if the outbox was filled outside a window.
func (sh *Shard) sortOutbox() {
	if sh.outboxSorted {
		return
	}
	sh.outboxSorted = true
	if len(sh.outbox) > 1 {
		sort.Slice(sh.outbox, func(i, j int) bool { return msgLess(&sh.outbox[i], &sh.outbox[j]) })
	}
}

// clearOutbox empties the outbox after delivery. The entries are zeroed
// first so delivered payloads don't linger reachable in the backing array
// between windows of a long run.
func (sh *Shard) clearOutbox() {
	clear(sh.outbox)
	sh.outbox = sh.outbox[:0]
	sh.outboxSorted = true
}

// deliver posts one drained message into its target queue and records the
// target as mailed (its next-time may have moved up).
func (ss *ShardSet) deliver(m *remoteMsg) {
	to := m.to
	ss.shards[to].sim.PostAt(m.at, m.p)
	if ss.mailEpoch[to] != ss.mailRound {
		ss.mailEpoch[to] = ss.mailRound
		ss.mailed = append(ss.mailed, to)
	}
}

// drainFrom merges the pending outboxes of the given shards into the
// target queues, in global msgLess order: each outbox is already a sorted
// run, so a k-way merge over run heads replaces the old whole-batch sort.
// The delivery order — and with it the fresh seqs SchedulePayload assigns
// in each target queue — is a pure function of the messages themselves,
// identical however the previous window's shards were grouped.
func (ss *ShardSet) drainFrom(senders []int32) {
	ss.mailed = ss.mailed[:0]
	ss.mailRound++
	runs := ss.runs[:0]
	for _, id := range senders {
		sh := ss.shards[id]
		if len(sh.outbox) == 0 {
			continue
		}
		sh.sortOutbox()
		runs = append(runs, id)
	}
	ss.runs = runs
	switch len(runs) {
	case 0:
		return
	case 1:
		sh := ss.shards[runs[0]]
		for i := range sh.outbox {
			ss.deliver(&sh.outbox[i])
		}
		sh.clearOutbox()
		return
	}

	// K-way merge: a small binary heap of run slots ordered by each run's
	// head message. Keys are globally unique, so the pop order is total.
	if cap(ss.runPos) < len(runs) {
		ss.runPos = make([]int32, len(runs))
		ss.mergeIdx = make([]int32, 0, len(runs))
	}
	pos := ss.runPos[:len(runs)]
	for i := range pos {
		pos[i] = 0
	}
	head := func(slot int32) *remoteMsg {
		return &ss.shards[runs[slot]].outbox[pos[slot]]
	}
	h := ss.mergeIdx[:0]
	less := func(a, b int32) bool { return msgLess(head(a), head(b)) }
	siftDown := func(i int) {
		for {
			best := i
			if c := 2*i + 1; c < len(h) && less(h[c], h[best]) {
				best = c
			}
			if c := 2*i + 2; c < len(h) && less(h[c], h[best]) {
				best = c
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for slot := range runs {
		h = append(h, int32(slot))
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		slot := h[0]
		ss.deliver(head(slot))
		pos[slot]++
		if int(pos[slot]) == len(ss.shards[runs[slot]].outbox) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	ss.mergeIdx = h[:0]
	for _, id := range runs {
		ss.shards[id].clearOutbox()
	}
}

// runWindow fires the simulator's events with time < w (and ≤ end),
// without advancing the clock past the last fired event.
func (s *Simulator) runWindow(w, end simtime.Time) {
	for {
		next := s.q.PeekTime()
		if next >= w || next > end {
			// simtime.Never compares greater than any real instant, so an
			// empty queue lands here too.
			break
		}
		s.fireAt(next)
	}
}

// execWindow runs executor group g's share of the current window: every
// curGroups-th shard of the active list, each up to its own bound, then
// sorts its outbox so the coordinator's drain only merges. Active shards
// are disjoint across groups, so the only shared state is read-only.
func (ss *ShardSet) execWindow(g int) {
	for k := g; k < len(ss.active); k += ss.curGroups {
		id := ss.active[k]
		sh := ss.shards[id]
		sh.sim.runWindow(ss.bounds[id], ss.curEnd)
		sh.sortOutbox()
	}
}

// sealTopology turns the declared edges into the min-plus shortest-walk
// distance matrix (Floyd–Warshall; the diagonal starts at ∞, so D(i,i)
// converges to the shortest cycle through i, never zero) and flattens it
// into per-shard reachability lists: inbound[i] holds every (j, D(j,i))
// with a finite distance — the terms of i's window-bound min — and
// outbound[j] every i reachable from j — the shards whose bounds can grow
// when j fires. Built in index order, so deterministic. O(n³) once per
// run; at the simulator's host counts (tens to hundreds of shards) this
// is noise next to a single window.
func (ss *ShardSet) sealTopology() {
	n := len(ss.shards)
	d := make([]simtime.Duration, n*n)
	for i := range d {
		d[i] = simtime.Infinite
	}
	for k, l := range ss.edges {
		from, to := int(k>>32), int(uint32(k))
		if l < d[from*n+to] {
			d[from*n+to] = l
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if dik == simtime.Infinite {
				continue
			}
			for j := 0; j < n; j++ {
				if via := satAddDur(dik, d[k*n+j]); via < d[i*n+j] {
					d[i*n+j] = via
				}
			}
		}
	}
	ss.inbound = make([][]edgeRef, n)
	ss.outbound = make([][]int32, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if dist := d[j*n+i]; dist != simtime.Infinite {
				ss.inbound[i] = append(ss.inbound[i], edgeRef{src: int32(j), l: dist})
				ss.outbound[j] = append(ss.outbound[j], int32(i))
			}
		}
	}
}

// selectWindow picks the active shards and bounds for one window. Only candidate shards are examined: the previous
// round's actives (their next-times advanced), shards that just received
// mail (their next-times may have moved up), and shards reachable from
// the actives (a bound term t_j + D(j,i) can only grow when j fires).
// Any other shard kept both its next-time and its bound, so if it was
// inactive it still is — after the first round the coordinator rescans
// the full set only when the topology's reachability forces it.
func (ss *ShardSet) selectWindow(first bool, end simtime.Time) {
	ss.epoch++
	cand := ss.cand[:0]
	add := func(id int32) {
		if ss.candEpoch[id] != ss.epoch {
			ss.candEpoch[id] = ss.epoch
			cand = append(cand, id)
		}
	}
	if first {
		for _, id := range ss.allIDs {
			add(id)
		}
	} else {
		for _, id := range ss.actPrev {
			add(id)
			for _, nb := range ss.outbound[id] {
				add(nb)
			}
		}
		for _, id := range ss.mailed {
			add(id)
		}
	}
	ss.cand = cand
	slices.Sort(cand)

	ss.active = ss.active[:0]
	for _, id := range cand {
		t := ss.heap.keyOf(id)
		if t > end {
			continue
		}
		b := simtime.Never
		for _, e := range ss.inbound[id] {
			if x := ss.heap.keyOf(e.src).Add(e.l); x < b {
				b = x
			}
		}
		if t >= b {
			continue
		}
		ss.bounds[id] = b
		ss.active = append(ss.active, id)
	}
}

// RunUntil advances every shard to end under conservative windowed
// synchronization, using up to groups concurrent executors (1 = fully
// sequential, same results). Shards are assigned to executors round-robin
// over the active list; the assignment is pure bookkeeping — outputs are
// bit-identical for every group count.
func (ss *ShardSet) RunUntil(end simtime.Time, groups int) {
	if len(ss.shards) == 0 {
		return
	}
	if ss.inRun {
		panic("sim: ShardSet.RunUntil re-entered")
	}
	ss.inRun = true
	defer func() { ss.inRun = false }()

	if groups < 1 {
		groups = 1
	}
	if groups > len(ss.shards) {
		groups = len(ss.shards)
	}
	n := len(ss.shards)
	ss.curEnd = end
	ss.curGroups = groups
	if cap(ss.keys) < n {
		ss.keys = make([]simtime.Time, n)
		ss.bounds = make([]simtime.Time, n)
		ss.allIDs = make([]int32, n)
		ss.candEpoch = make([]uint64, n)
		ss.mailEpoch = make([]uint64, n)
	}
	ss.keys = ss.keys[:n]
	ss.bounds = ss.bounds[:n]
	ss.allIDs = ss.allIDs[:n]
	ss.candEpoch = ss.candEpoch[:n]
	ss.mailEpoch = ss.mailEpoch[:n]
	for i := range ss.allIDs {
		ss.allIDs[i] = int32(i)
	}
	ss.sealTopology()

	var bp *runner.BarrierPool
	if groups > 1 {
		bp = runner.NewBarrierPool(groups-1, func(w int) { ss.execWindow(w + 1) })
		defer bp.Close()
	}

	// Deliver anything buffered before the run, then index the next-times.
	ss.drainFrom(ss.allIDs)
	for i, sh := range ss.shards {
		ss.keys[i] = sh.sim.q.PeekTime()
	}
	ss.heap.init(ss.keys)

	first := true
	for {
		if _, minT := ss.heap.min(); minT > end {
			break
		}
		ss.selectWindow(first, end)
		first = false
		if len(ss.active) == 0 {
			// Unreachable if the candidate bookkeeping is right: the
			// globally-earliest shard always sits below its bound.
			panic("sim: shard window stalled with pending events")
		}
		ss.windows++

		switch {
		case len(ss.active) == 1:
			id := ss.active[0]
			ss.shards[id].sim.runWindow(ss.bounds[id], end)
		case groups == 1:
			ss.execWindow(0)
		default:
			bp.Round(func() { ss.execWindow(0) })
		}

		for _, id := range ss.active {
			ss.heap.update(id, ss.shards[id].sim.q.PeekTime())
		}
		// This round's actives are the only shards with pending outboxes
		// (and next round's actPrev).
		ss.active, ss.actPrev = ss.actPrev, ss.active
		ss.drainFrom(ss.actPrev)
		for _, id := range ss.mailed {
			ss.heap.update(id, ss.shards[id].sim.q.PeekTime())
		}
	}

	// All queues are past end (or empty): settle every clock at end, like
	// Simulator.RunUntil does.
	for _, sh := range ss.shards {
		sh.sim.RunUntil(end)
	}
}

// RunFor advances the set by d from its current global time.
func (ss *ShardSet) RunFor(d simtime.Duration, groups int) {
	ss.RunUntil(ss.Now().Add(d), groups)
}

// Fork deep-copies the whole shard set — every shard's simulator, the
// in-flight mailbox messages, and the declared edge-lookahead matrix —
// through one shared clone context, so cross-shard references held by
// handlers (e.g. a cluster agent holding peers' shard pointers) land on
// the forked twins. Shard clones are memoized before any simulator forks,
// mirroring the Put-before-fill rule. Coordinator scratch (heap, bounds,
// candidate sets) is per-run state and is rebuilt by the next RunUntil.
func (ss *ShardSet) Fork(ctx *clone.Ctx) (*ShardSet, error) {
	if ss.inRun {
		panic("sim: Fork during RunUntil")
	}
	nss := &ShardSet{
		lookahead: ss.lookahead,
		edges:     maps.Clone(ss.edges),
		windows:   ss.windows,
	}
	ctx.Put(ss, nss)
	nss.shards = make([]*Shard, len(ss.shards))
	for i, sh := range ss.shards {
		nsh := &Shard{
			id:           sh.id,
			set:          nss,
			outboxSorted: sh.outboxSorted,
			edgeSeq:      append([]uint64(nil), sh.edgeSeq...),
		}
		if len(sh.outbox) > 0 {
			nsh.outbox = append([]remoteMsg(nil), sh.outbox...)
		}
		ctx.Put(sh, nsh)
		nss.shards[i] = nsh
	}
	for i, sh := range ss.shards {
		nsim, err := sh.sim.Fork(ctx)
		if err != nil {
			return nil, fmt.Errorf("sim: forking shard %d: %w", i, err)
		}
		nss.shards[i].sim = nsim
	}
	return nss, nil
}
