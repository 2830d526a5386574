package sim

import (
	"slices"
	"strings"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// pinger is a test handler driving deterministic cross-shard traffic: each
// tick does local "work" (folds the clock into a hash), sends a pong to a
// random peer after the network delay, and schedules its next tick from
// the shard's own RNG. The folded hash is a digest of everything that
// matters: event times, order, and payload routing.
type pinger struct {
	sh    *Shard
	peers []*Shard // all shards, self included (skipped when drawn)
	id    int32
	ticks int
	limit int
	hash  uint64
}

const (
	evPingTick uint16 = iota
	evPingPong
)

func (p *pinger) mix(vs ...uint64) {
	for _, v := range vs {
		p.hash = (p.hash ^ v) * 1099511628211
	}
}

func (p *pinger) HandleSimEvent(now simtime.Time, ev Payload) {
	switch ev.Kind {
	case evPingTick:
		p.mix(1, uint64(now))
		if p.ticks++; p.ticks > p.limit {
			return
		}
		rng := p.sh.Sim().RNG()
		// Redraw until we hit a peer (2 shards minimum in these tests).
		to := p.peers[rng.Intn(len(p.peers))]
		for to == p.sh {
			to = p.peers[rng.Intn(len(p.peers))]
		}
		delay := p.sh.set.EdgeLookahead(p.sh.ID(), to.ID()) + simtime.Duration(rng.Int63n(int64(simtime.Micros(40))))
		// Every shard registers exactly one pinger, so the peer's handler
		// ID is 0 on every simulator.
		p.sh.PostRemote(to, now.Add(delay), Payload{
			Handler: 0, Kind: evPingPong, Arg0: int64(p.sh.ID()),
		})
		p.sh.Sim().PostAfter(simtime.Micros(10+rng.Int63n(30)), Payload{Handler: p.id, Kind: evPingTick})
	case evPingPong:
		p.mix(2, uint64(now), uint64(ev.Arg0))
	default:
		panic("pinger: unknown kind")
	}
}

func (p *pinger) ForkHandler(ctx *clone.Ctx) Handler {
	if n, ok := ctx.Lookup(p); ok {
		return n.(*pinger)
	}
	np := &pinger{id: p.id, ticks: p.ticks, limit: p.limit, hash: p.hash}
	ctx.Put(p, np)
	np.sh = clone.Get(ctx, p.sh)
	np.peers = make([]*Shard, len(p.peers))
	for i, sh := range p.peers {
		np.peers[i] = clone.Get(ctx, sh)
	}
	return np
}

type pingWorld struct {
	set     *ShardSet
	pingers []*pinger
}

// declareComplete declares every ordered shard pair at the set's global
// lookahead: the all-to-all topology the ping and chain fixtures run on.
func declareComplete(set *ShardSet) {
	n := len(set.Shards())
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				set.SetEdgeLookahead(from, to, set.Lookahead())
			}
		}
	}
}

func buildPingWorld(seed uint64, shards int) *pingWorld {
	set := NewShardSet(simtime.Micros(19))
	w := &pingWorld{set: set}
	for i := 0; i < shards; i++ {
		set.NewShard(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	declareComplete(set)
	for _, sh := range set.Shards() {
		p := &pinger{sh: sh, peers: set.Shards(), limit: 200, hash: 14695981039346656037}
		p.id = sh.Sim().RegisterHandler(p)
		sh.Sim().PostAt(0, Payload{Handler: p.id, Kind: evPingTick})
		w.pingers = append(w.pingers, p)
	}
	return w
}

func (w *pingWorld) digest() []uint64 {
	out := make([]uint64, 0, 2*len(w.pingers)+2)
	for i, p := range w.pingers {
		out = append(out, p.hash, w.set.Shards()[i].Sim().EventsFired())
	}
	return append(out, w.set.EventsFired(), uint64(w.set.Now()))
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardSetGroupInvariance is the kernel-level determinism golden: the
// same sharded world produces bit-identical state under 1, 2, 3, 4, and 8
// executor groups.
func TestShardSetGroupInvariance(t *testing.T) {
	ref := buildPingWorld(7, 8)
	ref.set.RunUntil(simtime.Time(simtime.Millis(20)), 1)
	want := ref.digest()
	if ref.set.Windows() == 0 || ref.set.EventsFired() == 0 {
		t.Fatalf("degenerate reference run: %d windows, %d events", ref.set.Windows(), ref.set.EventsFired())
	}
	for _, groups := range []int{2, 3, 4, 8} {
		w := buildPingWorld(7, 8)
		w.set.RunUntil(simtime.Time(simtime.Millis(20)), groups)
		if got := w.digest(); !equalU64(got, want) {
			t.Errorf("groups=%d diverged from sequential: got %v want %v", groups, got, want)
		}
		if w.set.Windows() != ref.set.Windows() {
			t.Errorf("groups=%d window count %d != sequential %d", groups, w.set.Windows(), ref.set.Windows())
		}
	}
}

// burster sends three same-instant messages to shard 0 on its tick; on
// shard 0 it logs the order those messages fire in.
type burster struct {
	sh, dst *Shard
	log     *[]int64
}

func (b *burster) HandleSimEvent(now simtime.Time, ev Payload) {
	switch ev.Kind {
	case evPingTick:
		for k := int64(0); k < 3; k++ {
			b.sh.PostRemote(b.dst, now.Add(b.sh.set.Lookahead()), Payload{
				Handler: 0, Kind: evPingPong, Arg0: 10*int64(b.sh.ID()) + k,
			})
		}
	case evPingPong:
		*b.log = append(*b.log, ev.Arg0)
	}
}

func (b *burster) ForkHandler(*clone.Ctx) Handler { panic("burster: not forkable") }

// TestShardMailboxTieOrder pins the delivery order of messages that reach
// one shard at the same instant: they fire in msgLess order (sender, then
// per-edge emission order) under every executor group count. Random
// timestamps almost never tie, so the other goldens cannot see an
// executor that hands its batch over out of order.
func TestShardMailboxTieOrder(t *testing.T) {
	run := func(groups int) []int64 {
		set := NewShardSet(simtime.Micros(19))
		for i := 0; i < 5; i++ {
			set.NewShard(uint64(i + 1))
		}
		declareComplete(set)
		var log []int64
		for _, sh := range set.Shards() {
			b := &burster{sh: sh, dst: set.Shards()[0], log: &log}
			id := sh.Sim().RegisterHandler(b)
			if sh.ID() != 0 {
				sh.Sim().PostAt(0, Payload{Handler: id, Kind: evPingTick})
			}
		}
		set.RunUntil(simtime.Time(simtime.Millis(1)), groups)
		return log
	}
	want := []int64{10, 11, 12, 20, 21, 22, 30, 31, 32, 40, 41, 42}
	for _, groups := range []int{1, 2, 3, 4} {
		if got := run(groups); !slices.Equal(got, want) {
			t.Errorf("groups=%d fired same-instant messages in order %v, want %v", groups, got, want)
		}
	}
}

// TestShardSetResume checks that windowed runs compose: run-to-10ms then
// run-to-20ms equals one run-to-20ms.
func TestShardSetResume(t *testing.T) {
	one := buildPingWorld(3, 4)
	one.set.RunUntil(simtime.Time(simtime.Millis(20)), 2)

	two := buildPingWorld(3, 4)
	two.set.RunUntil(simtime.Time(simtime.Millis(10)), 3)
	two.set.RunUntil(simtime.Time(simtime.Millis(20)), 2)

	if !equalU64(one.digest(), two.digest()) {
		t.Fatalf("split run diverged: %v vs %v", two.digest(), one.digest())
	}
}

func TestPostRemoteLookaheadViolationPanics(t *testing.T) {
	set := NewShardSet(simtime.Micros(19))
	a := set.NewShard(1)
	b := set.NewShard(2)
	declareComplete(set)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PostRemote below the lookahead bound did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	a.PostRemote(b, simtime.Time(simtime.Micros(18)), Payload{})
}

func TestPostRemoteSelfAndForeignPanic(t *testing.T) {
	set := NewShardSet(simtime.Micros(19))
	a := set.NewShard(1)
	other := NewShardSet(simtime.Micros(19)).NewShard(9)

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("self-post", func() { a.PostRemote(a, simtime.Time(simtime.Micros(100)), Payload{}) })
	mustPanic("foreign-set post", func() { a.PostRemote(other, simtime.Time(simtime.Micros(100)), Payload{}) })
	mustPanic("zero lookahead", func() { NewShardSet(0) })
}

// TestShardSetFork forks a sharded world mid-run — including messages
// sitting in a shard outbox at fork time — and checks both continuations
// stay bit-identical.
func TestShardSetFork(t *testing.T) {
	w := buildPingWorld(11, 4)
	w.set.RunUntil(simtime.Time(simtime.Millis(5)), 2)

	// Leave genuinely in-flight mailbox traffic for the fork to copy.
	shards := w.set.Shards()
	shards[1].PostRemote(shards[2], w.set.Now().Add(simtime.Millis(1)),
		Payload{Handler: 0, Kind: evPingPong, Arg0: 42})
	if len(shards[1].outbox) != 1 {
		t.Fatal("expected a buffered outbox message")
	}

	ctx := clone.New()
	nset, err := w.set.Fork(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nset.Shards()[1].outbox); got != 1 {
		t.Fatalf("fork lost the in-flight mailbox message (outbox len %d)", got)
	}
	fw := &pingWorld{set: nset}
	for _, p := range w.pingers {
		fw.pingers = append(fw.pingers, clone.Get(ctx, p))
	}

	w.set.RunUntil(simtime.Time(simtime.Millis(15)), 3)
	fw.set.RunUntil(simtime.Time(simtime.Millis(15)), 1)
	if !equalU64(w.digest(), fw.digest()) {
		t.Fatalf("fork diverged: original %v fork %v", w.digest(), fw.digest())
	}
}

// TestShardIdleShard checks a shard with no events never blocks progress.
func TestShardIdleShard(t *testing.T) {
	set := NewShardSet(simtime.Micros(19))
	a := set.NewShard(1)
	_ = set.NewShard(2) // stays empty
	p := &pinger{sh: a, peers: []*Shard{a}, limit: 0, hash: 1}
	p.id = a.Sim().RegisterHandler(p)
	a.Sim().PostAt(0, Payload{Handler: p.id, Kind: evPingTick})
	set.RunUntil(simtime.Time(simtime.Millis(1)), 2)
	if set.EventsFired() != 1 {
		t.Fatalf("fired %d events, want 1", set.EventsFired())
	}
	for _, sh := range set.Shards() {
		if sh.Sim().Now() != simtime.Time(simtime.Millis(1)) {
			t.Fatalf("shard %d clock %v, want 1ms", sh.ID(), sh.Sim().Now())
		}
	}
}
