package psql

import (
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/rtree"
)

// TestSurvivorsByIDSortsTuplesAlong: a scan that met a reused page out
// of id order has its survivors sorted by id with each tuple kept beside
// its item.
func TestSurvivorsByIDSortsTuplesAlong(t *testing.T) {
	ids := []int64{7, 3, 9, 1, 4}
	s := survivorsByID{make([]rtree.Item, len(ids)), make([]relation.Tuple, len(ids))}
	for i, id := range ids {
		s.items[i] = rtree.Item{Data: id}
		s.tuples[i] = relation.Tuple{relation.I(id)}
	}
	sort.Sort(s)
	for i := range s.items {
		if i > 0 && s.items[i-1].Data >= s.items[i].Data {
			t.Fatalf("items not ascending: %v", s.items)
		}
		if s.tuples[i][0].Int != s.items[i].Data {
			t.Fatalf("item %d carries tuple %v", s.items[i].Data, s.tuples[i])
		}
	}
}
