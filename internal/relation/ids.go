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
//   - Address ids (New/Open): one store; a tuple's id is its heap
//     address and its record is the encoded tuple. Nothing is kept in
//     memory per tuple, and an id is reused once its slot is freed.
//   - Sequence ids (NewSharded/OpenSharded): any number of stores; a
//     tuple's id is its insertion sequence number, carried as an 8-byte
//     little-endian prefix of its record, so ascending id order is
//     insertion order whichever store a tuple landed in. The route table
//     maps sequence → (store, heap address); it is rebuilt on open from
//     the prefixes and is the only truth about where a tuple lives.
//     Sequences are never reused and tuples never move, so a route only
//     ever goes from live to retired.
//
// Everything else in the package is written once against idCodec.
// Giving every record the prefix would leave one layout and no codec;
// that is a format change and waits for one (DESIGN.md §17).

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

// openSeqIDs rebuilds the route table by scanning every store's
// sequence prefixes, counting each store's live records into live. A
// malformed sequence, or one stored twice in a store, is corruption. A
// sequence stored in two stores with byte-identical records is what a
// build with online shard splits (removed, DESIGN.md §17) left behind
// when it crashed after the destination shard committed but before the
// source's deletions did: the higher-numbered store's copy is kept
// (those splits only appended shards) and the stale lower one deleted,
// durably at the next commit. Differing payloads remain corruption.
func openSeqIDs(stores []*store, live []int64) (*seqIDs, error) {
	c := &seqIDs{}
	maxSeq := seqBase - 1
	for s, st := range stores {
		var scanErr error
		err := st.heap.Scan(func(lid storage.TupleID, rec []byte) bool {
			seq, _, err := c.unframe(lid, rec)
			if err != nil {
				scanErr = err
				return false
			}
			if prev, plid, dup := c.resolve(seq); dup {
				if prev == s {
					scanErr = fmt.Errorf("%w: sequence %d stored twice in shard %d", storage.ErrCorrupt, seq, s)
					return false
				}
				stale, err := stores[prev].heap.Get(plid)
				if err != nil {
					scanErr = fmt.Errorf("%w: sequence %d stored in both shard %d and shard %d", storage.ErrCorrupt, seq, prev, s)
					return false
				}
				if string(stale) != string(rec) {
					scanErr = fmt.Errorf("%w: sequence %d stored in both shard %d and shard %d with differing records", storage.ErrCorrupt, seq, prev, s)
					return false
				}
				// Stores scan in ascending order, so prev is the split's
				// source.
				if err := stores[prev].heap.Delete(plid); err != nil {
					scanErr = fmt.Errorf("shard %d: dropping stale split duplicate of sequence %d: %w", prev, seq, err)
					return false
				}
				live[prev]--
			}
			c.publish(seq, s, lid)
			live[s]++
			maxSeq = max(maxSeq, seq)
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	c.next.Store(maxSeq + 1)
	return c, nil
}
