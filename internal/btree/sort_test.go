package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSortEntries holds SortEntries to slices.SortFunc(CompareEntries)
// on a copy of run: the same keys and values at every position.
func checkSortEntries(t testing.TB, run []Entry) {
	t.Helper()
	want := slices.Clone(run)
	slices.SortFunc(want, CompareEntries)
	got := slices.Clone(run)
	SortEntries(got)
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || got[i].Value != want[i].Value {
			t.Fatalf("entry %d of %d: SortEntries gives (%q, %d), SortFunc (%q, %d)",
				i, len(run), got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// intKey and floatKey are the order-preserving 8-byte encodings a
// relation's int and float columns index under.
func intKey(v int64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(v)^1<<63) }

func floatKey(f float64) []byte {
	bits := math.Float64bits(f)
	if bits>>63 == 1 {
		bits = ^bits
	} else {
		bits ^= 1 << 63
	}
	return binary.BigEndian.AppendUint64(nil, bits)
}

// fuzzRun reads a run from data, a record per step: a kind byte, the
// key's bytes and a one-byte signed value, so values repeat and come in
// any order. Kind 0 is an int key, 1 a float key, 2 a string of 'k's
// with one byte changed (NUL among them) at a length from 0 to 19, so
// strings shorter and longer than 8 bytes share their 8-byte prefixes,
// and 3 up to 11 raw bytes.
func fuzzRun(data []byte) []Entry {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var run []Entry
	for len(data) > 0 {
		kind := next()
		var k []byte
		switch kind % 4 {
		case 0:
			k = intKey(int64(int8(next())) * int64(next()))
		case 1:
			k = floatKey(float64(int8(next())) / float64(1+next()%8))
		case 2:
			k = bytes.Repeat([]byte{'k'}, int(kind>>2)%20)
			if i := int(next()); len(k) > 0 {
				k[i%len(k)] = next()
			}
		case 3:
			n := int(kind>>2) % 12
			k = make([]byte, 0, n)
			for range n {
				k = append(k, next())
			}
		}
		run = append(run, Entry{Key: k, Value: Value(int8(next()))})
	}
	return run
}

// FuzzSortEntries holds SortEntries to slices.SortFunc(CompareEntries)
// on runs that mix int, float and string keys, strings shorter and
// longer than 8 bytes over one 8-byte prefix, NUL bytes, and repeated
// keys and values in any order.
func FuzzSortEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 1, 5, 3, 9, 0, 1, 2, 4})
	// Strings of 4, 8, 9 and 13 bytes, NULs among them, beside an int key.
	f.Add([]byte{18, 3, 0, 1, 34, 7, 0, 2, 38, 8, 0, 3, 54, 1, 'z', 200, 0, 0, 1, 5})
	f.Add([]byte{34, 0, 'k', 1, 34, 0, 'k', 1, 38, 8, 0, 255, 30, 7, 0, 0, 30, 7, 0, 128})
	f.Add([]byte{1, 250, 3, 9, 1, 6, 1, 9, 1, 0, 0, 4, 1, 128, 0, 4, 3, 0, 0, 7})
	f.Add([]byte{15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 11, 0, 0, 0, 0, 0, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortEntries(t, fuzzRun(data))
	})
}

// Large runs take every path of the radix sort: values already in
// order (no value digit sorted) or shuffled, prefixes that share their
// high bytes, and groups of one prefix sorted again.
func TestSortEntriesMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 5000} {
		for _, inOrder := range []bool{false, true} {
			ints, strs, mixed := make([]Entry, n), make([]Entry, n), make([]Entry, n)
			for i := range n {
				v := Value(i)<<16 | Value(rng.Intn(300))
				if !inOrder {
					v = rng.Int63() - rng.Int63()
				}
				ints[i] = Entry{Key: intKey(rng.Int63n(1_000_000)), Value: v}
				s := []byte("prefix-prefix")[:rng.Intn(14)]
				strs[i] = Entry{Key: append(s, byte(rng.Intn(3))), Value: v}
				switch rng.Intn(3) {
				case 0:
					mixed[i] = ints[i]
				case 1:
					mixed[i] = Entry{Key: floatKey(rng.NormFloat64()), Value: v}
				default:
					mixed[i] = strs[i]
				}
			}
			for _, run := range [][]Entry{ints, strs, mixed} {
				checkSortEntries(t, run)
			}
		}
	}
	dups := dupRun(rng, 5000, 7)
	checkSortEntries(t, dups)
	checkSortEntries(t, append(dups, dups...))
}
