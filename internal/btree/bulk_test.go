package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// dupRun draws n entries over about n/dups distinct keys, values
// unique, in random order.
func dupRun(rng *rand.Rand, n, dups int) []Entry {
	run := make([]Entry, n)
	for i, v := range rng.Perm(n) {
		run[i] = Entry{Key: key(rng.Intn(n/dups + 1)), Value: Value(v)}
	}
	return run
}

// collect drains one of the tree's scans into entries sorted by
// (key, value): what a tree answers, whatever order it keeps equal keys
// in.
func collect(scan func(fn func([]byte, Value) bool)) []Entry {
	var out []Entry
	scan(func(k []byte, v Value) bool {
		out = append(out, Entry{Key: k, Value: v})
		return true
	})
	SortEntries(out)
	return out
}

func entriesEqual(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool { return CompareEntries(x, y) == 0 })
}

// checkSameAnswers compares every read of a bulk-loaded tree with the
// same read of a tree built from the same entries by per-item Insert.
func checkSameAnswers(t testing.TB, bulk, ins *Tree, probes [][]byte) {
	t.Helper()
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != ins.Len() {
		t.Fatalf("Len %d, inserted tree %d", bulk.Len(), ins.Len())
	}
	if !entriesEqual(collect(bulk.Ascend), collect(ins.Ascend)) {
		t.Fatal("Ascend differs")
	}
	for i, lo := range probes {
		hi := probes[(i+1)%len(probes)]
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		from := func(tr *Tree) func(func([]byte, Value) bool) {
			return func(fn func([]byte, Value) bool) { tr.AscendFrom(lo, fn) }
		}
		if !entriesEqual(collect(from(bulk)), collect(from(ins))) {
			t.Fatalf("AscendFrom(%q) differs", lo)
		}
		rng := func(tr *Tree) func(func([]byte, Value) bool) {
			return func(fn func([]byte, Value) bool) { tr.AscendRange(lo, hi, fn) }
		}
		if !entriesEqual(collect(rng(bulk)), collect(rng(ins))) {
			t.Fatalf("AscendRange(%q, %q) differs", lo, hi)
		}
		got, want := bulk.Get(lo), ins.Get(lo)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Get(%q) = %v, inserted tree %v", lo, got, want)
		}
	}
}

func loadBoth(order int, run []Entry) (bulk, ins *Tree) {
	ins = New(order)
	for _, e := range run {
		ins.Insert(e.Key, e.Value)
	}
	sorted := slices.Clone(run)
	SortEntries(sorted)
	return BulkLoad(order, sorted), ins
}

func TestBulkLoadMatchesInsert(t *testing.T) {
	for _, order := range []int{3, 4, 64} {
		for _, n := range []int{0, 1, 2, order, order + 1, order*(order+1) + 1, 700, 5000} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				run := dupRun(rng, n, 1+rng.Intn(40))
				bulk, ins := loadBoth(order, run)
				probes := [][]byte{[]byte(""), []byte("key-"), []byte("zzz")}
				for i := 0; i < 20 && n > 0; i++ {
					probes = append(probes, run[rng.Intn(n)].Key, key(rng.Intn(n+2)))
				}
				t.Run(fmt.Sprintf("order%d/n%d/seed%d", order, n, seed), func(t *testing.T) {
					checkSameAnswers(t, bulk, ins, probes)
				})
			}
		}
	}
}

// The loaded order is (key, value): duplicates come out in ascending
// value, which is what makes a reloaded index independent of the order
// its heap happened to be scanned in.
func TestBulkLoadOrdersDuplicatesByValue(t *testing.T) {
	run := dupRun(rand.New(rand.NewSource(9)), 2000, 50)
	SortEntries(run)
	tr := BulkLoad(4, run)
	var got []Entry
	tr.Ascend(func(k []byte, v Value) bool {
		got = append(got, Entry{Key: k, Value: v})
		return true
	})
	if !entriesEqual(got, run) {
		t.Fatal("Ascend of a bulk-loaded tree is not its run")
	}
}

// Live writes after a load keep the shape: loaded nodes are full, so
// the first Insert into a leaf splits it (and its full parent), and
// deletes leave underfull but well-formed nodes behind.
func TestBulkLoadThenWrites(t *testing.T) {
	for _, order := range []int{3, 4, 64} {
		rng := rand.New(rand.NewSource(int64(order)))
		run := dupRun(rng, 3000, 5)
		bulk, ins := loadBoth(order, run)
		if leaf := bulk.first; len(leaf.keys) != order {
			t.Fatalf("order %d: first loaded leaf holds %d keys", order, len(leaf.keys))
		}
		leaves := func(tr *Tree) (n int) {
			for l := tr.first; l != nil; l = l.next {
				n++
			}
			return n
		}
		before := leaves(bulk)
		bulk.Insert(run[0].Key, 1<<40)
		ins.Insert(run[0].Key, 1<<40)
		if got := leaves(bulk); got != before+1 {
			t.Fatalf("order %d: insert into a full leaf left %d leaves, was %d", order, got, before)
		}
		for i := 0; i < 2000; i++ {
			e := Entry{Key: key(rng.Intn(4000)), Value: Value(10_000 + i)}
			bulk.Insert(e.Key, e.Value)
			ins.Insert(e.Key, e.Value)
			run = append(run, e)
			if i%3 == 0 {
				d := run[rng.Intn(len(run))]
				if got, want := bulk.Delete(d.Key, d.Value), ins.Delete(d.Key, d.Value); got != want {
					t.Fatalf("order %d: Delete(%q, %d) = %v, inserted tree %v", order, d.Key, d.Value, got, want)
				}
			}
			if i%100 == 0 {
				if err := bulk.CheckInvariants(); err != nil {
					t.Fatalf("order %d after %d writes: %v", order, i, err)
				}
			}
		}
		checkSameAnswers(t, bulk, ins, [][]byte{[]byte(""), key(100), key(2000), key(3999)})
	}
}

func TestBulkLoadUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BulkLoad accepted an unsorted run")
		}
	}()
	BulkLoad(4, []Entry{{Key: key(2), Value: 1}, {Key: key(1), Value: 2}})
}

// CheckInvariants must see what a broken bulk load would produce.
func TestCheckInvariantsCatchesShape(t *testing.T) {
	build := func() *Tree {
		run := dupRun(rand.New(rand.NewSource(4)), 200, 1)
		SortEntries(run)
		return BulkLoad(4, run)
	}
	tr := build()
	root := tr.root.(*innerNode)
	last := root.children[len(root.children)-1].(*innerNode)
	last.children, last.keys = last.children[:1], nil
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("inner node with one child passed")
	}
	tr = build()
	root = tr.root.(*innerNode)
	root.keys[0] = []byte("zzz")
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("separator above its right subtree passed")
	}
}

// FuzzBulkLoad cuts the input into short keys with many repeats and
// holds a bulk-loaded tree to the answers of an inserted one at a small
// and at the default order.
func FuzzBulkLoad(f *testing.F) {
	f.Add([]byte("aabbccaabbcc"), uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		w := int(width%4) + 1
		var run []Entry
		for i := 0; i+w <= len(data); i += w {
			run = append(run, Entry{Key: data[i : i+w], Value: Value(i)})
		}
		probes := [][]byte{{}, {0xff, 0xff, 0xff, 0xff, 0xff}}
		for i := 0; i < len(run); i += 1 + len(run)/8 {
			probes = append(probes, run[i].Key)
		}
		for _, order := range []int{3, DefaultOrder} {
			bulk, ins := loadBoth(order, run)
			checkSameAnswers(t, bulk, ins, probes)
		}
	})
}
