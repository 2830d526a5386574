package sim

import (
	"testing"

	"rtvirt/internal/simtime"
)

// foldDigest hashes a world digest into one word (FNV-1a over the words).
func foldDigest(d []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range d {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// TestCompleteGraphMatchesUniformWindows pins that a complete graph
// declared at the global lookahead windows exactly like the implicit
// uniform mode it replaced. The want columns were recorded from that mode
// (every pair at the global lookahead, no edge declared) before it was
// deleted: same window count, same events, same digest.
func TestCompleteGraphMatchesUniformWindows(t *testing.T) {
	for _, fx := range []struct {
		seed    uint64
		shards  int
		end     simtime.Duration
		windows uint64
		events  uint64
		digest  uint64
	}{
		{7, 8, simtime.Millis(20), 247, 3208, 0xc8c1275bb9241fbe},
		{3, 4, simtime.Millis(20), 227, 1604, 0xee9375eabfe4f753},
		{11, 4, simtime.Millis(15), 222, 1604, 0xe4fc344dbbccb85c},
	} {
		w := buildPingWorld(fx.seed, fx.shards)
		w.set.RunUntil(simtime.Time(fx.end), 1)
		if got := w.set.Windows(); got != fx.windows {
			t.Errorf("ping seed=%d shards=%d: %d windows, uniform mode ran %d", fx.seed, fx.shards, got, fx.windows)
		}
		if got := w.set.EventsFired(); got != fx.events {
			t.Errorf("ping seed=%d shards=%d: %d events, uniform mode fired %d", fx.seed, fx.shards, got, fx.events)
		}
		if got := foldDigest(w.digest()); got != fx.digest {
			t.Errorf("ping seed=%d shards=%d: digest %#x, uniform mode gave %#x", fx.seed, fx.shards, got, fx.digest)
		}
	}

	chain := buildChainWorld(false)
	chain.set.RunUntil(simtime.Time(simtime.Millis(5)), 1)
	if got := chain.set.Windows(); got != 114 {
		t.Errorf("chain: %d windows, uniform mode ran 114", got)
	}
	if got := foldDigest(chain.digest()); got != 0xbd4fade1eba4c2f4 {
		t.Errorf("chain: digest %#x, uniform mode gave 0xbd4fade1eba4c2f4", got)
	}
	if got := chain.nodes[0].windowsAtLast; got != 100 {
		t.Errorf("chain: head finished in window %d, uniform mode in 100", got)
	}
}
