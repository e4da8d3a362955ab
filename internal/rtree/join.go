package rtree

import "repro/internal/geom"

// JoinPair is one joined result: item A from the first tree, item B
// from the second.
type JoinPair struct {
	A, B Item
}

// Juxtapose collects what JoinPairs emits: every pair of items whose
// rectangles satisfy pred, in traversal order, plus the number of node
// pairs visited. The pruning rule is JoinPairs': pred must imply
// rectangle intersection. workers is ignored; it stays only because
// cmd/pictbench compiles against it, until the benchmark reads the
// engine's own counters.
func Juxtapose(t, u *Tree, pred func(a, b geom.Rect) bool, workers int) ([]JoinPair, int) {
	var out []JoinPair
	visited := JoinPairs(t, u, pred, func(a, b Item) bool {
		out = append(out, JoinPair{A: a, B: b})
		return true
	})
	return out, visited
}
