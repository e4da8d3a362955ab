// Package btree implements an in-memory B+-tree over byte-string keys,
// the "usual way" the paper indexes alphanumeric relation columns
// (§2.1: "The relation columns that correspond to alphanumeric domains
// are indexed the usual way") and the ancestral structure R-trees
// generalize [Bayer & McCreight 1972]. Keys are compared with
// bytes.Compare; package relation provides order-preserving encodings
// for its column types. Duplicate keys are allowed: each (key, value)
// pair is one entry.
package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Value is the payload stored per key: an int64, typically a packed
// storage.TupleID.
type Value = int64

// DefaultOrder is the default maximum number of keys per node, sized
// so a node comfortably fills a fraction of a disk page.
const DefaultOrder = 64

type leafNode struct {
	keys [][]byte
	vals []Value
	next *leafNode // right sibling for range scans
}

type innerNode struct {
	// keys[i] is the smallest key in children[i+1]'s subtree.
	keys     [][]byte
	children []node
}

// node is a *leafNode or an *innerNode. No node links to its parent: an
// insert records the path it came down and its splits climb that.
type node any

// step is one inner node of an insert's descent and the index of the
// child it took.
type step struct {
	in *innerNode
	i  int
}

// Tree is an in-memory B+-tree.
type Tree struct {
	order int
	root  node
	first *leafNode
	size  int
}

// New returns an empty tree with the given order (max keys per node);
// order must be at least 3.
func New(order int) *Tree {
	if order < 3 {
		panic(fmt.Sprintf("btree: order %d < 3", order))
	}
	leaf := &leafNode{}
	return &Tree{order: order, root: leaf, first: leaf}
}

// NewDefault returns an empty tree with DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Entry is one (key, value) pair of a run handed to BulkLoad.
type Entry struct {
	Key   []byte
	Value Value
}

// CompareEntries orders entries by key, then by value: the order of a
// BulkLoad run. Entries of one index differ in their value (a tuple
// id), so the order is total and a sorted run is unique.
func CompareEntries(a, b Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// SortEntries sorts run into BulkLoad's order, the order
// slices.SortFunc(run, CompareEntries) gives. It sorts words, not keys:
// a record per entry of the key's first 8 bytes as a big-endian word
// (zero-padded), its value and its position goes through an LSD radix
// sort by (prefix, value), and run is gathered in the records' order.
// Padded prefixes order as bytes.Compare orders the keys wherever they
// differ, so only a run of equal prefixes holding a key that is not 8
// bytes long — two longer keys that share 8 bytes, or a shorter one
// beside its NUL-extended twin — is sorted again with CompareEntries.
func SortEntries(run []Entry) {
	recs := sortRecords(run)
	// Gather into a copy: the loads are independent, where following
	// the permutation's cycles in place chains one cache miss on the
	// next.
	sorted := make([]Entry, len(run))
	for i, r := range recs {
		sorted[i] = run[r.pos]
	}
	copy(run, sorted)
	for lo := 0; lo < len(run); {
		hi, long := lo+1, len(run[lo].Key) != 8
		for hi < len(run) && recs[hi].prefix == recs[lo].prefix {
			long = long || len(run[hi].Key) != 8
			hi++
		}
		if long && hi-lo > 1 {
			slices.SortFunc(run[lo:hi], CompareEntries)
		}
		lo = hi
	}
}

// sortRecord is one entry of a run as SortEntries sorts it: the key's
// first 8 bytes, the value with its sign bit flipped (unsigned order is
// then int64 order) and the entry's position in the run.
type sortRecord struct {
	prefix, value uint64
	pos           int
}

// sortRecords returns the records of run sorted by (prefix, value),
// stably: an LSD radix sort over the value's 8 bytes and then the
// prefix's, which skips a byte every record shares and, when the run
// is already in value order (a heap scan hands ids over ascending), all
// of the value's bytes.
func sortRecords(run []Entry) []sortRecord {
	recs := make([]sortRecord, len(run))
	// counts[b] histograms byte b of the 16-byte (prefix, value) word,
	// least significant first: the value's bytes are 0-7.
	var counts [16][256]int
	inOrder := true
	for i, e := range run {
		var p [8]byte
		copy(p[:], e.Key)
		r := sortRecord{prefix: binary.BigEndian.Uint64(p[:]), value: uint64(e.Value) ^ 1<<63, pos: i}
		recs[i] = r
		inOrder = inOrder && (i == 0 || recs[i-1].value <= r.value)
		for b := range 8 {
			counts[b][byte(r.value>>(8*b))]++
			counts[8+b][byte(r.prefix>>(8*b))]++
		}
	}
	var spare []sortRecord
	for b := range counts {
		if b < 8 && inOrder {
			continue
		}
		if slices.Contains(counts[b][:], len(run)) {
			continue // every record has the same byte here
		}
		if spare == nil {
			spare = make([]sortRecord, len(run))
		}
		var start [256]int
		sum := 0
		for v, c := range counts[b] {
			start[v] = sum
			sum += c
		}
		shift := 8 * uint(b%8)
		for _, r := range recs {
			w := r.value
			if b >= 8 {
				w = r.prefix
			}
			v := byte(w >> shift)
			spare[start[v]] = r
			start[v]++
		}
		recs, spare = spare, recs
	}
	return recs
}

// BulkLoad builds a tree bottom-up from a run sorted by CompareEntries:
// one pass lays the entries out as a chain of leaves, then each level of
// inner nodes is cut from the level below — the single-sort bulk load,
// against a root-to-leaf descent per entry with Insert. Every node is
// filled to the order, as PACK fills R-tree nodes; only the last node
// of a level may hold fewer, and the last inner node of a level takes a
// child from its left sibling rather than stand over a single one. The
// tree keeps the run's key slices (Insert copies its key; a caller
// handing over a run gives the keys up). An unsorted run is a bug in
// the caller and panics.
func BulkLoad(order int, run []Entry) *Tree {
	t := New(order)
	n := len(run)
	if n == 0 {
		return t
	}
	keys := make([][]byte, n)
	vals := make([]Value, n)
	for i, e := range run {
		if i > 0 && CompareEntries(run[i-1], e) > 0 {
			panic(fmt.Sprintf("btree: BulkLoad run out of order at entry %d", i))
		}
		keys[i], vals[i] = e.Key, e.Value
	}

	// Leaves are windows of the two arrays, capped so that an Insert
	// growing one reallocates instead of writing into its neighbour.
	level := make([]node, 0, (n+order-1)/order)
	// mins[i] is the smallest key under level[i]: the separator its
	// parent stores when it is not the first child.
	mins := make([][]byte, 0, cap(level))
	var prev *leafNode
	for lo := 0; lo < n; lo += order {
		hi := min(lo+order, n)
		leaf := &leafNode{keys: keys[lo:hi:hi], vals: vals[lo:hi:hi]}
		if prev == nil {
			t.first = leaf
		} else {
			prev.next = leaf
		}
		prev = leaf
		level = append(level, leaf)
		mins = append(mins, keys[lo])
	}

	for len(level) > 1 {
		fan := order + 1
		next := make([]node, 0, (len(level)+fan-1)/fan)
		nextMins := make([][]byte, 0, cap(next))
		for lo := 0; lo < len(level); {
			hi := min(lo+fan, len(level))
			if len(level)-hi == 1 {
				hi--
			}
			in := &innerNode{keys: mins[lo+1 : hi : hi], children: level[lo:hi:hi]}
			next = append(next, in)
			nextMins = append(nextMins, mins[lo])
			lo = hi
		}
		level, mins = next, nextMins
	}
	t.root = level[0]
	t.size = n
	return t
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// findLeaf descends to the leaf that should contain key, appending each
// step to path unless path is nil: Insert records its descent on its
// own stack, since readers descend beside each other.
func (t *Tree) findLeaf(key []byte, path []step) (*leafNode, []step) {
	n := t.root
	for {
		switch v := n.(type) {
		case *leafNode:
			return v, path
		case *innerNode:
			// Descend left on equality: with duplicate keys a split
			// separator can equal the key, and equal entries may live
			// in the left sibling; scans then walk right via the leaf
			// chain.
			i := 0
			for i < len(v.keys) && bytes.Compare(key, v.keys[i]) > 0 {
				i++
			}
			if path != nil {
				path = append(path, step{v, i})
			}
			n = v.children[i]
		}
	}
}

// lowerBound returns the index of the first key in leaf >= key.
func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, value). Duplicate keys are kept; the key slice is
// copied.
func (t *Tree) Insert(key []byte, value Value) {
	k := append([]byte(nil), key...)
	// Every inner node has two children or more and Delete removes no
	// node, so 2^63 entries fit in 64 levels.
	var buf [64]step
	leaf, path := t.findLeaf(k, buf[:0])
	i := lowerBound(leaf.keys, k)
	leaf.keys = append(leaf.keys, nil)
	copy(leaf.keys[i+1:], leaf.keys[i:])
	leaf.keys[i] = k
	leaf.vals = append(leaf.vals, 0)
	copy(leaf.vals[i+1:], leaf.vals[i:])
	leaf.vals[i] = value
	t.size++
	if len(leaf.keys) > t.order {
		t.splitLeaf(path, leaf)
	}
}

func (t *Tree) splitLeaf(path []step, leaf *leafNode) {
	mid := len(leaf.keys) / 2
	right := &leafNode{
		keys: append([][]byte(nil), leaf.keys[mid:]...),
		vals: append([]Value(nil), leaf.vals[mid:]...),
		next: leaf.next,
	}
	leaf.keys = leaf.keys[:mid]
	leaf.vals = leaf.vals[:mid]
	leaf.next = right
	t.insertIntoParent(path, leaf, right.keys[0], right)
}

func (t *Tree) splitInner(path []step, in *innerNode) {
	mid := len(in.keys) / 2
	upKey := in.keys[mid]
	right := &innerNode{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid]
	in.children = in.children[:mid+1]
	t.insertIntoParent(path, in, upKey, right)
}

// insertIntoParent links right as the sibling of left, which path leads
// to, with separator key: into the parent path ends at, left being the
// child its last step took, or into a new root when path is empty.
func (t *Tree) insertIntoParent(path []step, left node, key []byte, right node) {
	if len(path) == 0 {
		t.root = &innerNode{keys: [][]byte{key}, children: []node{left, right}}
		return
	}
	last := path[len(path)-1]
	p, pos := last.in, last.i
	p.keys = append(p.keys, nil)
	copy(p.keys[pos+1:], p.keys[pos:])
	p.keys[pos] = key
	p.children = append(p.children, nil)
	copy(p.children[pos+2:], p.children[pos+1:])
	p.children[pos+1] = right
	if len(p.keys) > t.order {
		t.splitInner(path[:len(path)-1], p)
	}
}

// Get returns the values stored under key (nil when absent).
func (t *Tree) Get(key []byte) []Value {
	var out []Value
	t.AscendRange(key, append(append([]byte(nil), key...), 0), func(k []byte, v Value) bool {
		if bytes.Equal(k, key) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// Delete removes one entry matching (key, value), reporting whether an
// entry was removed. Underfull nodes are tolerated (this index serves
// a read-mostly pictorial database; structural rebalancing on delete
// is not required for correctness of searches), but empty leaves are
// unlinked lazily during scans.
func (t *Tree) Delete(key []byte, value Value) bool {
	leaf, _ := t.findLeaf(key, nil)
	for leaf != nil {
		i := lowerBound(leaf.keys, key)
		if i == len(leaf.keys) {
			leaf = leaf.next
			continue
		}
		for ; i < len(leaf.keys) && bytes.Equal(leaf.keys[i], key); i++ {
			if leaf.vals[i] == value {
				leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
				leaf.vals = append(leaf.vals[:i], leaf.vals[i+1:]...)
				t.size--
				return true
			}
		}
		if i < len(leaf.keys) {
			return false // passed beyond key
		}
		leaf = leaf.next
	}
	return false
}

// Ascend calls fn on every entry in ascending key order; returning
// false stops the scan.
func (t *Tree) Ascend(fn func(key []byte, value Value) bool) {
	for leaf := t.first; leaf != nil; leaf = leaf.next {
		for i := range leaf.keys {
			if !fn(leaf.keys[i], leaf.vals[i]) {
				return
			}
		}
	}
}

// AscendRange calls fn on entries with lo <= key < hi in ascending
// order; returning false stops the scan.
func (t *Tree) AscendRange(lo, hi []byte, fn func(key []byte, value Value) bool) {
	leaf, _ := t.findLeaf(lo, nil)
	for leaf != nil {
		for i := lowerBound(leaf.keys, lo); i < len(leaf.keys); i++ {
			if bytes.Compare(leaf.keys[i], hi) >= 0 {
				return
			}
			if !fn(leaf.keys[i], leaf.vals[i]) {
				return
			}
		}
		leaf = leaf.next
	}
}

// AscendFrom calls fn on entries with key >= lo in ascending order;
// returning false stops the scan.
func (t *Tree) AscendFrom(lo []byte, fn func(key []byte, value Value) bool) {
	leaf, _ := t.findLeaf(lo, nil)
	for leaf != nil {
		for i := lowerBound(leaf.keys, lo); i < len(leaf.keys); i++ {
			if !fn(leaf.keys[i], leaf.vals[i]) {
				return
			}
		}
		leaf = leaf.next
	}
}

// CheckInvariants verifies B+-tree ordering, linkage and shape: the
// leaf chain is sorted and holds size entries; no node holds more than
// order keys; every inner node has one child more than keys, and at
// least two; every leaf sits at the same depth; and
// each separator bounds the subtrees beside it (nothing left of it is
// greater, nothing right of it smaller). It returns nil for a valid
// tree. Leaves emptied by Delete are valid.
func (t *Tree) CheckInvariants() error {
	var prev []byte
	count := 0
	for leaf := t.first; leaf != nil; leaf = leaf.next {
		if len(leaf.keys) != len(leaf.vals) {
			return fmt.Errorf("btree: leaf keys/vals mismatch")
		}
		for _, k := range leaf.keys {
			if prev != nil && bytes.Compare(prev, k) > 0 {
				return fmt.Errorf("btree: leaf chain out of order: %q > %q", prev, k)
			}
			prev = k
			count++
		}
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries in leaf chain", t.size, count)
	}
	leafDepth := -1
	// walk returns the smallest and largest key under n (nil, nil when
	// the subtree holds no entry).
	var walk func(n node, depth int) (lo, hi []byte, err error)
	walk = func(n node, depth int) ([]byte, []byte, error) {
		if leaf, ok := n.(*leafNode); ok {
			if len(leaf.keys) > t.order {
				return nil, nil, fmt.Errorf("btree: leaf holds %d keys, order %d", len(leaf.keys), t.order)
			}
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				return nil, nil, fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			if len(leaf.keys) == 0 {
				return nil, nil, nil
			}
			return leaf.keys[0], leaf.keys[len(leaf.keys)-1], nil
		}
		in := n.(*innerNode)
		if len(in.children) != len(in.keys)+1 {
			return nil, nil, fmt.Errorf("btree: inner children/keys mismatch")
		}
		if len(in.children) < 2 {
			return nil, nil, fmt.Errorf("btree: inner node with %d children", len(in.children))
		}
		if len(in.keys) > t.order {
			return nil, nil, fmt.Errorf("btree: inner node holds %d keys, order %d", len(in.keys), t.order)
		}
		for i := 1; i < len(in.keys); i++ {
			if bytes.Compare(in.keys[i-1], in.keys[i]) > 0 {
				return nil, nil, fmt.Errorf("btree: inner keys out of order")
			}
		}
		var lo, hi []byte
		for i, c := range in.children {
			clo, chi, err := walk(c, depth+1)
			if err != nil {
				return nil, nil, err
			}
			if clo == nil {
				continue
			}
			if i > 0 && bytes.Compare(in.keys[i-1], clo) > 0 {
				return nil, nil, fmt.Errorf("btree: separator %q above its right subtree's %q", in.keys[i-1], clo)
			}
			if i < len(in.keys) && bytes.Compare(chi, in.keys[i]) > 0 {
				return nil, nil, fmt.Errorf("btree: separator %q below its left subtree's %q", in.keys[i], chi)
			}
			if lo == nil {
				lo = clo
			}
			hi = chi
		}
		return lo, hi, nil
	}
	_, _, err := walk(t.root, 0)
	return err
}
