package rtree

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// This file parallelizes the paper's juxtaposition primitive (§4): the
// simultaneous traversal of two R-trees. The traversal is a DFS over
// the *product tree* whose nodes are pairs (n, m) with intersecting
// MBRs. To fan it out without changing the answer, the product tree's
// frontier is first expanded breadth-first — each expansion step
// replaces a pair with its intersecting child pairs, in the exact
// order the serial DFS would descend — until it is wide enough to feed
// the workers. Each frontier pair then becomes an independent task: a
// serial DFS over its subtree pair. Because (a) the frontier preserves
// left-to-right DFS order and (b) the full DFS emission is the
// concatenation of the subtree emissions in that order, stitching the
// per-task results back together in frontier order reproduces the
// serial join bit for bit — including the node-pair visit count, since
// every pair is counted exactly once (during expansion, or at task-DFS
// entry).

// JoinPair is one joined result: item A from the first tree, item B
// from the second.
type JoinPair struct {
	A, B Item
}

// frontierFactor is the target number of tasks per worker. More tasks
// than workers smooths load imbalance between subtree pairs of very
// different sizes; 8 keeps the expansion shallow while leaving the
// atomic-cursor work stealing enough slack.
const frontierFactor = 8

// joinWorkers normalizes a parallelism request for a join: <= 0 means
// GOMAXPROCS.
func joinWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}

// Juxtapose joins two in-memory trees with up to workers goroutines,
// returning every pair of items whose rectangles satisfy pred plus the
// number of node pairs visited. The result is identical — same pairs,
// same order, same visit count — to running the serial JoinPairs and
// collecting its emissions. workers <= 0 means GOMAXPROCS; workers ==
// 1 runs the serial traversal directly. The pruning rule is the same
// as JoinPairs: pred must imply rectangle intersection.
func Juxtapose(t, u *Tree, pred func(a, b geom.Rect) bool, workers int) ([]JoinPair, int) {
	if t.size == 0 || u.size == 0 {
		return nil, 0
	}
	workers = joinWorkers(workers)
	if workers == 1 {
		var out []JoinPair
		visited := JoinPairs(t, u, pred, func(a, b Item) bool {
			out = append(out, JoinPair{A: a, B: b})
			return true
		})
		return out, visited
	}

	type task struct{ n, m *node }
	frontier := []task{{t.root, u.root}}
	visited := 0
	for len(frontier) < workers*frontierFactor {
		next := make([]task, 0, 2*len(frontier))
		expanded := false
		for _, pr := range frontier {
			if pr.n.leaf && pr.m.leaf {
				// Sealed: cannot expand; stays in position so task
				// concatenation preserves DFS emission order. Its visit
				// is counted when the worker walks it.
				next = append(next, pr)
				continue
			}
			expanded = true
			visited++ // this pair is visited here, during expansion
			switch {
			case pr.n.leaf:
				nm := pr.n.mbr()
				for _, eb := range pr.m.entries {
					if nm.Intersects(eb.rect) {
						next = append(next, task{pr.n, eb.child})
					}
				}
			case pr.m.leaf:
				mm := pr.m.mbr()
				for _, ea := range pr.n.entries {
					if ea.rect.Intersects(mm) {
						next = append(next, task{ea.child, pr.m})
					}
				}
			default:
				for _, ea := range pr.n.entries {
					for _, eb := range pr.m.entries {
						if ea.rect.Intersects(eb.rect) {
							next = append(next, task{ea.child, eb.child})
						}
					}
				}
			}
		}
		frontier = next
		if !expanded || len(frontier) == 0 {
			break
		}
	}

	results := make([][]JoinPair, len(frontier))
	var cursor, visits atomic.Int64
	var wg sync.WaitGroup
	if workers > len(frontier) {
		workers = len(frontier)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				var out []JoinPair
				visits.Add(int64(joinWalk(frontier[i].n, frontier[i].m, pred, &out)))
				results[i] = out
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, r := range results {
		total += len(r)
	}
	out := make([]JoinPair, 0, total)
	for _, r := range results {
		out = append(out, r...)
	}
	return out, visited + int(visits.Load())
}

// joinWalk is the serial simultaneous descent over one subtree pair,
// collecting matches into out. It returns the node pairs visited.
func joinWalk(n, m *node, pred func(a, b geom.Rect) bool, out *[]JoinPair) int {
	visited := 1
	switch {
	case n.leaf && m.leaf:
		for _, ea := range n.entries {
			for _, eb := range m.entries {
				if pred(ea.rect, eb.rect) {
					*out = append(*out, JoinPair{A: ea.item(), B: eb.item()})
				}
			}
		}
	case n.leaf:
		nm := n.mbr()
		for _, eb := range m.entries {
			if nm.Intersects(eb.rect) {
				visited += joinWalk(n, eb.child, pred, out)
			}
		}
	case m.leaf:
		mm := m.mbr()
		for _, ea := range n.entries {
			if ea.rect.Intersects(mm) {
				visited += joinWalk(ea.child, m, pred, out)
			}
		}
	default:
		for _, ea := range n.entries {
			for _, eb := range m.entries {
				if ea.rect.Intersects(eb.rect) {
					visited += joinWalk(ea.child, eb.child, pred, out)
				}
			}
		}
	}
	return visited
}
