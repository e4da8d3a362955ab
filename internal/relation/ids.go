package relation

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/storage"
)

// This file is the id/record codec: the only code that knows which of
// the two record layouts on disk a relation has (DESIGN.md §15).
//
//   - Address ids (New, and Open of a relation in the main file): one
//     store; a tuple's id is its heap address and its record is the
//     encoded tuple. Nothing is kept in memory per tuple, and an id is
//     reused once its slot is freed.
//   - Sequence ids (NewSharded, and Open of a sharded relation): any
//     number of stores; a tuple's id is its insertion sequence number,
//     carried as an 8-byte little-endian prefix of its record, so
//     ascending id order is insertion order whichever store a tuple
//     landed in. The route table maps sequence → (store, heap address);
//     Open rebuilds it from the prefixes in the scan that rebuilds the
//     indexes (build.go), and it is the only truth about where a tuple
//     lives. Sequences are never reused and tuples never move, so a route
//     only ever goes from live to retired.
//
// Everything else in the package is written once against idCodec. Why
// the main file keeps address ids is in DESIGN.md §17.

// idCodec maps between tuple ids and heap records. The directory
// methods — publish, resolve, retire, group, walk, snapshot — are called
// with Relation.smu held (exclusively for publish and retire); frame and
// unframe need no lock.
type idCodec interface {
	// frame returns the heap record for an encoded tuple and the
	// sequence reserved for it (0 when ids are addresses).
	frame(enc []byte) (rec []byte, seq int64)
	// publish names the record framed with seq and stored at lid of
	// store s, returning the tuple's id.
	publish(seq int64, s int, lid storage.TupleID) int64
	// resolve returns where id's record is; ok is false when id names no
	// live tuple the directory knows of.
	resolve(id int64) (s int, lid storage.TupleID, ok bool)
	// retire makes id unresolvable.
	retire(id int64)
	// unframe splits the record stored at lid into the id it carries and
	// the encoded tuple.
	unframe(lid storage.TupleID, rec []byte) (id int64, payload []byte, err error)
	// group resolves a batch by store: lids[s][k] is the heap address of
	// ids[pos[s][k]], and a nil pos stands for the identity. The first
	// unresolvable id fails the batch.
	group(ids []storage.TupleID, stores int) (lids [][]storage.TupleID, pos [][]int, err error)
	// walk calls fn for every live id in ascending order until fn
	// returns false. It reports false, calling nothing, when the ids are
	// heap addresses: only the heap can enumerate those.
	walk(fn func(id int64, s int, lid storage.TupleID) bool) bool
	// snapshot returns a copy of the directory that resolve and walk can
	// be called on without the lock.
	snapshot() idCodec
}

// placedAt reports whether dir places id's record at lid of store s —
// what a heap scan asks of each record it finds, to tell a live one
// from one a Delete has retired and not yet freed.
func placedAt(dir idCodec, id int64, s int, lid storage.TupleID) bool {
	ds, dlid, ok := dir.resolve(id)
	return ok && ds == s && dlid == lid
}

// addrIDs is the address-id codec: stateless, one store.
type addrIDs struct{}

func (addrIDs) frame(enc []byte) ([]byte, int64) { return enc, 0 }

func (addrIDs) publish(_ int64, _ int, lid storage.TupleID) int64 { return lid.Int64() }

func (addrIDs) resolve(id int64) (int, storage.TupleID, bool) {
	return 0, storage.TupleIDFromInt64(id), true
}

func (addrIDs) retire(int64) {}

func (addrIDs) unframe(lid storage.TupleID, rec []byte) (int64, []byte, error) {
	return lid.Int64(), rec, nil
}

func (addrIDs) group(ids []storage.TupleID, _ int) ([][]storage.TupleID, [][]int, error) {
	return [][]storage.TupleID{ids}, nil, nil
}

func (addrIDs) walk(func(int64, int, storage.TupleID) bool) bool { return false }

func (addrIDs) snapshot() idCodec { return addrIDs{} }

// seqBase is the first sequence id handed out. It decodes to
// TupleID{Page: 1, Slot: 0}, keeping IsValid true and leaving 0 free as
// the route table's "retired" marker.
const seqBase int64 = 1 << 16

// MaxShards bounds the store count of a sequence-id relation: a route
// packs the store number into the bits above the 48-bit heap address.
const MaxShards = 256

// seqIDs is the sequence-id codec: routes[seq-seqBase] packs (store,
// heap address), 0 = retired or never published.
type seqIDs struct {
	routes []int64
	next   atomic.Int64
}

// encodeRoute packs a route-table entry. Valid entries are never zero
// (a live heap address has Page >= 1).
func encodeRoute(s int, lid storage.TupleID) int64 {
	return int64(s)<<48 | lid.Int64()
}

// decodeRoute unpacks encodeRoute.
func decodeRoute(v int64) (int, storage.TupleID) {
	return int(v >> 48), storage.TupleIDFromInt64(v & (1<<48 - 1))
}

func (c *seqIDs) frame(enc []byte) ([]byte, int64) {
	seq := c.next.Add(1) - 1
	rec := make([]byte, 8+len(enc))
	binary.LittleEndian.PutUint64(rec, uint64(seq))
	copy(rec[8:], enc)
	return rec, seq
}

func (c *seqIDs) publish(seq int64, s int, lid storage.TupleID) int64 {
	i := seq - seqBase
	for int64(len(c.routes)) <= i {
		c.routes = append(c.routes, 0)
	}
	c.routes[i] = encodeRoute(s, lid)
	return seq
}

func (c *seqIDs) resolve(id int64) (int, storage.TupleID, bool) {
	i := id - seqBase
	if i < 0 || i >= int64(len(c.routes)) || c.routes[i] == 0 {
		return 0, storage.TupleID{}, false
	}
	s, lid := decodeRoute(c.routes[i])
	return s, lid, true
}

func (c *seqIDs) retire(id int64) {
	if _, _, ok := c.resolve(id); ok {
		c.routes[id-seqBase] = 0
	}
}

func (c *seqIDs) unframe(_ storage.TupleID, rec []byte) (int64, []byte, error) {
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("%w: record shorter than its sequence header", storage.ErrCorrupt)
	}
	seq := int64(binary.LittleEndian.Uint64(rec))
	if seq < seqBase {
		return 0, nil, fmt.Errorf("%w: record sequence %d below base %d", storage.ErrCorrupt, seq, seqBase)
	}
	return seq, rec[8:], nil
}

func (c *seqIDs) group(ids []storage.TupleID, stores int) ([][]storage.TupleID, [][]int, error) {
	lids := make([][]storage.TupleID, stores)
	pos := make([][]int, stores)
	for i, id := range ids {
		s, lid, ok := c.resolve(id.Int64())
		if !ok {
			return nil, nil, fmt.Errorf("%w: %v", storage.ErrNotFound, id)
		}
		lids[s] = append(lids[s], lid)
		pos[s] = append(pos[s], i)
	}
	return lids, pos, nil
}

func (c *seqIDs) walk(fn func(int64, int, storage.TupleID) bool) bool {
	for i, v := range c.routes {
		if v == 0 {
			continue
		}
		if s, lid := decodeRoute(v); !fn(seqBase+int64(i), s, lid) {
			break
		}
	}
	return true
}

func (c *seqIDs) snapshot() idCodec {
	return &seqIDs{routes: append([]int64(nil), c.routes...)}
}
