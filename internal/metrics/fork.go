package metrics

import "rtvirt/internal/simtime"

// Clone returns an independent deep copy of the recorder. The copy is taken
// without sorting: reading a percentile lazily sorts the sample slice, and a
// clone must never mutate the recorder it forked from.
func (l *LatencyRecorder) Clone() LatencyRecorder {
	n := LatencyRecorder{
		sorted: l.sorted,
		sum:    l.sum,
	}
	if l.samples != nil {
		n.samples = append([]simtime.Duration(nil), l.samples...)
	}
	return n
}

// Clone returns an independent copy of the estimator (all state is inline).
func (e *P2Quantile) Clone() *P2Quantile {
	ne := *e
	return &ne
}
