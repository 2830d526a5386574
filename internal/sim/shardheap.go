package sim

import "rtvirt/internal/simtime"

// shardHeap is a 4-ary min-heap over shard IDs keyed by each shard's
// earliest pending event time. It is the coordinator's index in the
// windowed run loop: the root answers "may the run terminate?" in O(1),
// updates after a window touch only the shards that actually fired or
// received mail (O(active·log n) instead of an O(n) rescan). Ties break
// toward the lower shard ID, so the root is a pure function of the key
// vector — independent of update history.
type shardHeap struct {
	key []simtime.Time // indexed by shard ID
	ids []int32        // heap-ordered shard IDs
	pos []int32        // shard ID -> index in ids
}

// init (re)builds the heap over keys; the slice is retained and read
// (never written) by the heap, so callers update entries only through
// update.
func (h *shardHeap) init(keys []simtime.Time) {
	n := len(keys)
	h.key = keys
	if cap(h.ids) < n {
		h.ids = make([]int32, n)
		h.pos = make([]int32, n)
	}
	h.ids = h.ids[:n]
	h.pos = h.pos[:n]
	for i := range h.ids {
		h.ids[i] = int32(i)
		h.pos[i] = int32(i)
	}
	for i := (n - 2) / 4; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *shardHeap) less(a, b int32) bool {
	ka, kb := h.key[a], h.key[b]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// update moves shard id to key t and restores heap order.
func (h *shardHeap) update(id int32, t simtime.Time) {
	old := h.key[id]
	if t == old {
		return
	}
	h.key[id] = t
	p := int(h.pos[id])
	if t < old {
		h.siftUp(p)
	} else {
		h.siftDown(p)
	}
}

func (h *shardHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *shardHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(h.ids[i], h.ids[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *shardHeap) siftDown(i int) {
	n := len(h.ids)
	for {
		best := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if h.less(h.ids[c], h.ids[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// min returns the shard with the earliest pending event and its time.
func (h *shardHeap) min() (int32, simtime.Time) {
	id := h.ids[0]
	return id, h.key[id]
}

// keyOf reports shard id's current key.
func (h *shardHeap) keyOf(id int32) simtime.Time { return h.key[id] }
