package sim

import (
	"strings"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// pingEdgeLookahead is the deterministic heterogeneous lookahead the
// per-edge tests declare for the ordered pair (from, to): the 19µs floor
// plus a pair-dependent spread.
func pingEdgeLookahead(from, to int) simtime.Duration {
	return simtime.Micros(19) + simtime.Micros(int64((from*31+to*17)%11)*7)
}

// buildPingWorldEdges is buildPingWorld with its complete graph
// redeclared at heterogeneous per-edge lookaheads. The pinger derives its
// post delay from EdgeLookahead, so the same handler drives both
// topologies.
func buildPingWorldEdges(seed uint64, shards int) *pingWorld {
	w := buildPingWorld(seed, shards)
	for from := 0; from < shards; from++ {
		for to := 0; to < shards; to++ {
			if from != to {
				w.set.SetEdgeLookahead(from, to, pingEdgeLookahead(from, to))
			}
		}
	}
	return w
}

func mustPanicContaining(t *testing.T, name, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", name)
			return
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %v, want message containing %q", name, r, want)
		}
	}()
	fn()
}

func TestSetEdgeLookaheadValidation(t *testing.T) {
	set := NewShardSet(simtime.Micros(19))
	set.NewShard(1)
	set.NewShard(2)

	mustPanicContaining(t, "zero lookahead", "positive", func() {
		set.SetEdgeLookahead(0, 1, 0)
	})
	mustPanicContaining(t, "negative lookahead", "positive", func() {
		set.SetEdgeLookahead(0, 1, -simtime.Micros(5))
	})
	mustPanicContaining(t, "unknown source shard", "unknown shard", func() {
		set.SetEdgeLookahead(7, 1, simtime.Micros(20))
	})
	mustPanicContaining(t, "negative source shard", "unknown shard", func() {
		set.SetEdgeLookahead(-1, 1, simtime.Micros(20))
	})
	mustPanicContaining(t, "unknown target shard", "unknown shard", func() {
		set.SetEdgeLookahead(0, 2, simtime.Micros(20))
	})
	mustPanicContaining(t, "self-edge", "self-edge", func() {
		set.SetEdgeLookahead(1, 1, simtime.Micros(20))
	})

	// None of the rejected calls may have declared an edge.
	if got := set.EdgeLookahead(0, 1); got != 0 {
		t.Fatalf("EdgeLookahead(0,1) = %v after rejected declarations, want 0 (undeclared)", got)
	}

	set.SetEdgeLookahead(0, 1, simtime.Micros(40))
	if got := set.EdgeLookahead(0, 1); got != simtime.Micros(40) {
		t.Fatalf("EdgeLookahead(0,1) = %v, want 40µs", got)
	}
	// Redeclaring overwrites.
	set.SetEdgeLookahead(0, 1, simtime.Micros(25))
	if got := set.EdgeLookahead(0, 1); got != simtime.Micros(25) {
		t.Fatalf("EdgeLookahead(0,1) = %v after redeclaration, want 25µs", got)
	}
	// The undeclared reverse direction is a non-edge.
	if got := set.EdgeLookahead(1, 0); got != 0 {
		t.Fatalf("EdgeLookahead(1,0) = %v for an undeclared edge, want 0", got)
	}
}

func TestPostRemotePerEdgeValidation(t *testing.T) {
	set := NewShardSet(simtime.Micros(19))
	a := set.NewShard(1)
	b := set.NewShard(2)
	c := set.NewShard(3)
	set.SetEdgeLookahead(0, 1, simtime.Micros(100))
	set.SetEdgeLookahead(1, 0, simtime.Micros(30))

	mustPanicContaining(t, "undeclared edge", "undeclared edge", func() {
		a.PostRemote(c, simtime.Time(simtime.Millis(1)), Payload{})
	})
	// Legal under the 19µs global, illegal under the edge's own 100µs.
	mustPanicContaining(t, "edge lookahead violation", "lookahead", func() {
		a.PostRemote(b, simtime.Time(simtime.Micros(50)), Payload{})
	})
	// At exactly the edge bound it is legal, per edge: 100µs out of a is
	// fine, while the reverse edge only needs 30µs.
	a.PostRemote(b, simtime.Time(simtime.Micros(100)), Payload{})
	b.PostRemote(a, simtime.Time(simtime.Micros(30)), Payload{})
	if got := len(a.outbox) + len(b.outbox); got != 2 {
		t.Fatalf("legal per-edge posts buffered %d messages, want 2", got)
	}
}

// chainNode is the 3-shard chain fixture's handler: A ticks locally and
// streams messages down the A→B (fast) edge, B relays down the B→C
// (slow) edge, C consumes. Each node folds what it sees into a hash, so
// the digest pins times, order, and routing across topology modes.
type chainNode struct {
	sh    *Shard
	next  *Shard // nil at the tail
	id    int32
	relay simtime.Duration
	ticks int
	hash  uint64
	recvd int
	// windowsAtLast records the coordinator's window counter when this
	// node fires its final tick — the direct observation that a shard
	// with no inbound walk runs to the horizon in the very first window
	// under declared topology.
	windowsAtLast uint64
}

const (
	evChainTick uint16 = iota
	evChainMsg
)

func (n *chainNode) HandleSimEvent(now simtime.Time, ev Payload) {
	switch ev.Kind {
	case evChainTick:
		n.hash = (n.hash ^ uint64(now)) * 1099511628211
		n.sh.PostRemote(n.next, now.Add(n.relay), Payload{Handler: 0, Kind: evChainMsg, Arg0: int64(now)})
		if n.ticks--; n.ticks > 0 {
			n.sh.Sim().PostAfter(simtime.Micros(10), Payload{Handler: n.id, Kind: evChainTick})
		} else {
			n.windowsAtLast = n.sh.set.Windows()
		}
	case evChainMsg:
		n.recvd++
		n.hash = (n.hash ^ 0x9e3779b9 ^ uint64(now) ^ uint64(ev.Arg0)) * 1099511628211
		if n.next != nil {
			n.sh.PostRemote(n.next, now.Add(n.relay), Payload{Handler: 0, Kind: evChainMsg, Arg0: ev.Arg0})
		}
	default:
		panic("chainNode: unknown kind")
	}
}

func (n *chainNode) ForkHandler(ctx *clone.Ctx) Handler { panic("chainNode: not forkable") }

type chainWorld struct {
	set   *ShardSet
	nodes [3]*chainNode
}

// buildChainWorld wires A→B→C. With declare, the two edges are the whole
// topology: A has no inbound walk at all (bound ∞), C has no outbound.
// Without it, every pair is an edge at the fast global lookahead.
func buildChainWorld(declare bool) *chainWorld {
	fast, slow := simtime.Micros(20), simtime.Micros(500)
	set := NewShardSet(fast) // global floor = the fastest edge
	w := &chainWorld{set: set}
	for i := 0; i < 3; i++ {
		set.NewShard(uint64(i) + 1)
	}
	sh := set.Shards()
	w.nodes[0] = &chainNode{sh: sh[0], next: sh[1], relay: fast, ticks: 200, hash: 1}
	w.nodes[1] = &chainNode{sh: sh[1], next: sh[2], relay: slow, hash: 1}
	w.nodes[2] = &chainNode{sh: sh[2], hash: 1}
	for _, n := range w.nodes {
		n.id = n.sh.Sim().RegisterHandler(n)
	}
	if declare {
		set.SetEdgeLookahead(0, 1, fast)
		set.SetEdgeLookahead(1, 2, slow)
	} else {
		declareComplete(set)
	}
	sh[0].Sim().PostAt(0, Payload{Handler: w.nodes[0].id, Kind: evChainTick})
	return w
}

func (w *chainWorld) digest() []uint64 {
	out := make([]uint64, 0, 8)
	for _, n := range w.nodes {
		out = append(out, n.hash, uint64(n.recvd))
	}
	return append(out, w.set.EventsFired(), uint64(w.set.Now()))
}

// TestShardChainPerEdgeWindows is the tentpole's kernel-level fixture:
// declared topology must collapse the chain's window count by an order of
// magnitude while producing bit-identical results, and the head shard —
// which nothing can reach — must finish its entire event stream inside
// window 1 instead of crawling at the global lookahead.
func TestShardChainPerEdgeWindows(t *testing.T) {
	end := simtime.Time(simtime.Millis(5))

	global := buildChainWorld(false)
	global.set.RunUntil(end, 1)
	declared := buildChainWorld(true)
	declared.set.RunUntil(end, 1)

	if !equalU64(global.digest(), declared.digest()) {
		t.Fatalf("topology modes diverged: global %v declared %v", global.digest(), declared.digest())
	}
	if got := declared.nodes[2].recvd; got != 200 {
		t.Fatalf("tail received %d messages, want 200", got)
	}
	wg, wd := global.set.Windows(), declared.set.Windows()
	if wd*10 > wg {
		t.Errorf("declared topology ran %d windows vs %d global — want at least a 10× collapse", wd, wg)
	}
	if got := declared.nodes[0].windowsAtLast; got != 1 {
		t.Errorf("no-inbound head finished in window %d under declared topology, want 1", got)
	}
	if got := global.nodes[0].windowsAtLast; got < 50 {
		t.Errorf("head finished in window %d under the global lookahead — fixture too easy (want ≥ 50)", got)
	}

	// Grouping invariance holds in explicit topology too.
	for _, groups := range []int{2, 3} {
		wrld := buildChainWorld(true)
		wrld.set.RunUntil(end, groups)
		if !equalU64(wrld.digest(), declared.digest()) {
			t.Errorf("groups=%d diverged under declared topology", groups)
		}
		if wrld.set.Windows() != wd {
			t.Errorf("groups=%d window count %d != sequential %d", groups, wrld.set.Windows(), wd)
		}
	}
}

// TestShardSetGroupInvarianceHeterogeneousEdges re-pins the determinism
// golden with a full matrix of unequal per-edge lookaheads.
func TestShardSetGroupInvarianceHeterogeneousEdges(t *testing.T) {
	ref := buildPingWorldEdges(7, 8)
	ref.set.RunUntil(simtime.Time(simtime.Millis(20)), 1)
	want := ref.digest()
	if ref.set.Windows() == 0 || ref.set.EventsFired() == 0 {
		t.Fatalf("degenerate reference run: %d windows, %d events", ref.set.Windows(), ref.set.EventsFired())
	}
	for _, groups := range []int{2, 3, 4, 8} {
		w := buildPingWorldEdges(7, 8)
		w.set.RunUntil(simtime.Time(simtime.Millis(20)), groups)
		if got := w.digest(); !equalU64(got, want) {
			t.Errorf("groups=%d diverged from sequential: got %v want %v", groups, got, want)
		}
		if w.set.Windows() != ref.set.Windows() {
			t.Errorf("groups=%d window count %d != sequential %d", groups, w.set.Windows(), ref.set.Windows())
		}
	}
}

// TestShardSetForkPerEdge forks a heterogeneous-edge world mid-run — with
// a message in an outbox — and checks the edge matrix and all traffic
// survive into the twin.
func TestShardSetForkPerEdge(t *testing.T) {
	w := buildPingWorldEdges(11, 4)
	w.set.RunUntil(simtime.Time(simtime.Millis(5)), 2)

	shards := w.set.Shards()
	shards[1].PostRemote(shards[2], w.set.Now().Add(simtime.Millis(1)),
		Payload{Handler: 0, Kind: evPingPong, Arg0: 42})

	ctx := clone.New()
	nset, err := w.set.Fork(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if from == to {
				continue
			}
			if got, want := nset.EdgeLookahead(from, to), pingEdgeLookahead(from, to); got != want {
				t.Fatalf("fork edge %d->%d lookahead %v, want %v", from, to, got, want)
			}
		}
	}
	fw := &pingWorld{set: nset}
	for _, p := range w.pingers {
		fw.pingers = append(fw.pingers, clone.Get(ctx, p))
	}
	w.set.RunUntil(simtime.Time(simtime.Millis(15)), 3)
	fw.set.RunUntil(simtime.Time(simtime.Millis(15)), 1)
	if !equalU64(w.digest(), fw.digest()) {
		t.Fatalf("per-edge fork diverged: original %v fork %v", w.digest(), fw.digest())
	}
}
