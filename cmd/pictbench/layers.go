package main

import (
	"fmt"
	"runtime"
	"time"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/pack"
	"repro/internal/pager"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file holds the traced run's view of each layer: the replayed
// calls (with the inputs the engine used) wrapped in spans, the counts
// taken at the same boundaries, and the end-state measurements.

// layerCounts are the counts one client takes at the layer boundaries.
type layerCounts struct {
	examined, returned int // index candidates, rows the statement returned
	fetched            int // tuples materialized by relation.fetch
	rtreeQueries       int
	rtreeNodes         int
	gets, pins         int // storage.get records, pager.pin pages
	writes, tuples     int // Database.Write calls, tuples they inserted
	walBytes, walUser  int64
}

func (a *layerCounts) add(b layerCounts) {
	a.examined += b.examined
	a.returned += b.returned
	a.fetched += b.fetched
	a.rtreeQueries += b.rtreeQueries
	a.rtreeNodes += b.rtreeNodes
	a.gets += b.gets
	a.pins += b.pins
	a.writes += b.writes
	a.tuples += b.tuples
	a.walBytes += b.walBytes
	a.walUser += b.walUser
}

// counters is a snapshot of the engine's own counters, summed over the
// main page file and every shard file.
type counters struct {
	pool    pager.Stats
	wal     pager.WALStats
	cache   pictdb.CacheStats
	repacks int
}

func (c counters) minus(d counters) counters {
	c.pool.Hits -= d.pool.Hits
	c.pool.Misses -= d.pool.Misses
	c.pool.Evictions -= d.pool.Evictions
	c.pool.MmapPins -= d.pool.MmapPins
	c.wal.Frames -= d.wal.Frames
	c.wal.Syncs -= d.wal.Syncs
	c.wal.Checkpoints -= d.wal.Checkpoints
	c.cache.Hits -= d.cache.Hits
	c.cache.Misses -= d.cache.Misses
	c.repacks -= d.repacks
	return c
}

type layerStats struct {
	b       *bench
	plainOp time.Duration // untraced median of the workload's op
	tracers []*tracer
	walIO   []time.Duration // per Write: time inside the WAL files' system calls
	n       layerCounts
	before  counters
	delta   counters // over the traced region

	heap *storage.Heap // a second handle on an unsharded relation's heap

	// Taken when the traced region ends.
	elapsed   time.Duration
	writeSide int
	imbalance float64
	// End-state measurements.
	tree                       rtree.Metrics
	repack, packTree, walCkpt  time.Duration
	packItems                  int
	hilbertNS, storageInsertNS float64
	heapBytes                  int64
}

// pagers lists the main pager and the relation's shard pagers.
func (l *layerStats) pagers() []*pager.Pager {
	ps := []*pager.Pager{l.b.main}
	if l.b.rel.Sharded() {
		for s := 0; s < l.b.rel.ShardCount(); s++ {
			ps = append(ps, l.b.rel.ShardPager(s))
		}
	}
	return ps
}

func (l *layerStats) spatials() []*relation.SpatialIndex {
	sis := l.b.rel.Spatials(l.b.def.pic)
	if l.b.regions != nil {
		sis = append(append([]*relation.SpatialIndex{}, sis...), l.b.regions.Spatials("regionmap")...)
	}
	return sis
}

func (l *layerStats) snapshot() counters {
	var c counters
	for _, p := range l.pagers() {
		s, w := p.Stats(), p.WALStats()
		c.pool.Hits += s.Hits
		c.pool.Misses += s.Misses
		c.pool.Evictions += s.Evictions
		c.pool.MmapPins += s.MmapPins
		c.wal.Frames += w.Frames
		c.wal.Syncs += w.Syncs
		c.wal.Checkpoints += w.Checkpoints
	}
	c.cache = l.b.db.CacheStats()
	for _, si := range l.spatials() {
		c.repacks += si.Repacks()
	}
	return c
}

func (l *layerStats) beginRegion() {
	l.before = l.snapshot()
	if !l.b.rel.Sharded() && l.b.def.batch == 0 {
		// Only read by the statement replay, which never runs beside a
		// writer on an unsharded relation.
		l.heap, _ = storage.Open(l.b.main, l.b.rel.HeapFirstPage())
	}
}

func (l *layerStats) endRegion(clients []*client, elapsed time.Duration) {
	l.elapsed = elapsed
	l.delta = l.snapshot().minus(l.before)
	for _, c := range clients {
		l.tracers = append(l.tracers, c.tr)
		l.walIO = append(l.walIO, c.walIO...)
		l.n.add(c.n)
		c.tr = nil
	}
	for _, si := range l.spatials() {
		cs := si.CostSnapshot()
		l.writeSide += cs.DeltaItems + cs.Tombstones
	}
	_, l.imbalance = l.b.rel.ShardBalance()
	// One repack of the write side the region left behind (the top-up
	// that follows ends with the write side merged away).
	for _, si := range l.b.rel.Spatials(l.b.def.pic) {
		t0 := time.Now()
		si.RepackNow(false)
		si.WaitRepack()
		l.repack += time.Since(t0)
	}
}

var needNamePop = []bool{true, true, false}

// tracedQuery runs one statement under a span and, on every
// replayEvery-th operation, replays the layer calls the executor makes
// for it as sibling spans of the same operation.
func (b *bench) tracedQuery(c *client, s *stmt) (*pictdb.Result, error) {
	tr := c.tr
	tr.beginOp("op")
	defer tr.end()
	tr.begin("psql.query")
	res, err := b.db.Query(s.text)
	tr.end()
	if err != nil || !tr.sampled() {
		return res, err
	}
	tr.begin("psql.parse")
	_, err = psql.Parse(s.text)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("replay parse: %w", err)
	}
	switch s.kind {
	case kindWindow:
		err = b.replayWindow(c, s)
	case kindJuxta:
		err = b.replayJuxta(c)
	case kindNested:
		err = b.replayNested(c, s)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	c.n.returned += res.Len()
	return res, nil
}

// replayWindow: direct search, batch fetch of name and pop, and beneath
// them the packed trees, the heap, the decoder and the pager.
func (b *bench) replayWindow(c *client, s *stmt) error {
	tr, par := c.tr, runtime.GOMAXPROCS(0)
	tr.begin("relation.search")
	ids, _, err := b.rel.SearchArea(b.def.pic, s.win, geom.CoveredBy)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("relation.fetch")
	_, err = b.rel.GetBatch(ids, needNamePop, par)
	tr.end()
	if err != nil {
		return err
	}
	c.n.examined += len(ids)
	c.n.fetched += len(ids)

	tr.begin("rtree.query")
	for _, si := range b.rel.Spatials(b.def.pic) {
		_, nodes := si.PackedTree().Query(s.win)
		c.n.rtreeNodes += nodes
	}
	tr.end()
	c.n.rtreeQueries++

	heap := b.layer.heap
	if heap == nil {
		return nil
	}
	recs := make([][]byte, len(ids))
	tr.begin("storage.get")
	for i, id := range ids {
		if recs[i], err = heap.Get(id); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return err
	}
	c.n.gets += len(ids)
	tr.begin("relation.decode")
	for _, rec := range recs {
		if _, err = relation.DecodeTupleCols(rec, needNamePop); err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("pager.pin")
	for _, id := range ids {
		v, perr := b.main.Pin(id.Page)
		if perr != nil {
			err = perr
			break
		}
		v.Unpin()
	}
	tr.end()
	c.n.pins += len(ids)
	return err
}

// distinctIDs returns ids without repeats, in first-seen order.
func distinctIDs(ids []storage.TupleID) []storage.TupleID {
	seen := make(map[storage.TupleID]struct{}, len(ids))
	out := ids[:0:0]
	for _, id := range ids {
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

// replayJuxta: the merged-index join, the packed-tree join beneath it,
// and the fetch of each side's distinct tuples.
func (b *bench) replayJuxta(c *client) error {
	tr, par := c.tr, runtime.GOMAXPROCS(0)
	tr.begin("relation.juxtapose")
	pairs, _, err := b.rel.JuxtaposeSpatial(b.def.pic, b.regions, "regionmap", geom.CoveredBy, par)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("rtree.juxtapose")
	rtree.Juxtapose(b.rel.Spatial(b.def.pic).PackedTree(), b.regions.Spatial("regionmap").PackedTree(), geom.CoveredBy, par)
	tr.end()
	as, bs := make([]storage.TupleID, len(pairs)), make([]storage.TupleID, len(pairs))
	for i, p := range pairs {
		as[i], bs[i] = p.A, p.B
	}
	as, bs = distinctIDs(as), distinctIDs(bs)
	tr.begin("relation.fetch")
	_, err = b.rel.GetBatch(as, needNamePop, par)
	if err == nil {
		_, err = b.regions.GetBatch(bs, []bool{true, true, false}, par)
	}
	tr.end()
	c.n.examined += len(pairs)
	c.n.fetched += len(as) + len(bs)
	return err
}

// replayNested: the inner mapping's search and fetch over regions, then
// the multi-window search and fetch over sites.
func (b *bench) replayNested(c *client, s *stmt) error {
	tr, par := c.tr, runtime.GOMAXPROCS(0)
	tr.begin("relation.search")
	rids, _, err := b.regions.SearchArea("regionmap", s.win, geom.Overlapping)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("relation.fetch")
	rts, err := b.regions.GetBatch(rids, []bool{false, true, true}, par)
	tr.end()
	if err != nil {
		return err
	}
	rpic, _ := b.db.Picture("regionmap")
	var wins []geom.Rect
	for _, t := range rts {
		if o, ok := rpic.Get(t[2].Loc.Object); ok && t[1].Int < s.k {
			wins = append(wins, o.MBR())
		}
	}
	tr.begin("relation.search")
	batches, _, err := b.rel.SearchAreaBatch(b.def.pic, wins, geom.CoveredBy, par)
	tr.end()
	if err != nil {
		return err
	}
	var ids []storage.TupleID
	for _, batch := range batches {
		ids = append(ids, batch...)
	}
	ids = distinctIDs(ids)
	tr.begin("relation.fetch")
	_, err = b.rel.GetBatch(ids, []bool{true, false, false}, par)
	tr.end()
	c.n.examined += len(rids) + len(ids)
	c.n.fetched += len(rids) + len(ids)
	return err
}

// walSizes returns each pager's WAL size and the sum of their
// checkpoint counts.
func (l *layerStats) walSizes() (size int64, checkpoints uint64) {
	for _, p := range l.pagers() {
		w := p.WALStats()
		size += w.Size
		checkpoints += w.Checkpoints
	}
	return size, checkpoints
}

// endState measures what is read off the quiescent final database: tree
// quality, one PACK, the curve, the heap and a WAL checkpoint.
func (l *layerStats) endState() error {
	b := l.b
	for _, si := range l.spatials() {
		m := si.PackedTree().ComputeMetrics()
		l.tree.Coverage += m.Coverage
		l.tree.Overlap += m.Overlap
		l.tree.Nodes += m.Nodes
		l.tree.Depth = max(l.tree.Depth, m.Depth)
	}
	items, _, err := b.rel.SpatialItems(b.def.pic)
	if err != nil {
		return err
	}
	opts, _ := b.rel.SpatialOpts(b.def.pic)
	t0 := time.Now()
	pack.Tree(rtree.DefaultParams(), items, opts)
	l.packTree, l.packItems = time.Since(t0), len(items)

	var keys uint64
	t0 = time.Now()
	for _, r := range b.in.base {
		keys += geom.HilbertKey(frame, r.pt)
	}
	l.hilbertNS = float64(time.Since(t0)) / float64(len(b.in.base))
	if keys == 0 {
		return fmt.Errorf("hilbert keys sum to zero")
	}

	// The run's encoded records, replayed into a scratch heap.
	if n := min(b.written, 20_000); n > 0 {
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = relation.EncodeTuple(pointTuple(b.in.writeRow(i), b.def.pic, pictdb.ObjectID(len(b.in.base)+i+1)))
		}
		scratch, _, err := storage.Create(pager.OpenMem(1024))
		if err != nil {
			return err
		}
		t0 = time.Now()
		for _, rec := range recs {
			if _, err := scratch.Insert(rec); err != nil {
				return err
			}
		}
		l.storageInsertNS = float64(time.Since(t0)) / float64(n)
	}

	heapPages := 0
	if b.rel.Sharded() {
		for s := 0; s < b.rel.ShardCount(); s++ {
			pages, err := b.rel.ShardHeapPages(s)
			if err != nil {
				return err
			}
			heapPages += len(pages)
		}
	}
	for _, rel := range []*pictdb.Relation{b.rel, b.regions} {
		if rel != nil {
			pages, err := rel.HeapPages()
			if err != nil {
				return err
			}
			heapPages += len(pages)
		}
	}
	l.heapBytes = int64(heapPages) * pager.PageSize

	t0 = time.Now()
	if err := b.db.CheckpointWAL(); err != nil {
		return err
	}
	l.walCkpt = time.Since(t0)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nanos(d time.Duration) float64 { return float64(d) }

// report turns spans, counts and counter deltas into the per-layer
// metrics. A metric a workload does not exercise reads 0.
func (l *layerStats) report(rep *report, pagerOpen, catalogLoad, checkpoint time.Duration) {
	st := summarize(l.tracers)
	p50 := func(name string) time.Duration { return percentile(st.dur[name], 50) }
	n := l.n

	// psql.exec_self_us: per replayed operation, the Query span minus
	// the replayed index and fetch spans.
	var execSelf []time.Duration
	for _, t := range l.tracers {
		var query, below time.Duration
		replayed := false
		flush := func() {
			if replayed {
				execSelf = append(execSelf, max(query-below, 0))
			}
			query, below, replayed = 0, 0, false
		}
		op := 0
		for _, s := range t.spans {
			if s.Op != op {
				flush()
				op = s.Op
			}
			switch s.Name {
			case "psql.query":
				query = s.dur()
			case "relation.search", "relation.fetch", "relation.juxtapose":
				below += s.dur()
				replayed = true
			}
		}
		flush()
	}

	tracedOp := p50("psql.query")
	if l.b.def.readers == 0 {
		tracedOp = p50("pictdb.write")
	}
	rep.set("trace.overhead_frac", ratio(nanos(tracedOp), nanos(l.plainOp)), "ratio")

	rep.set("psql.query_us", micros(p50("psql.query")), "us")
	rep.set("psql.query_p99_us", micros(percentile(st.dur["psql.query"], 99)), "us")
	rep.set("psql.parse_us", micros(p50("psql.parse")), "us")
	rep.set("psql.cache_hit_frac", ratio(float64(l.delta.cache.Hits), float64(l.delta.cache.Hits+l.delta.cache.Misses)), "ratio")
	rep.set("psql.exec_self_us", micros(percentile(execSelf, 50)), "us")
	rep.set("psql.rows_examined_per_row", ratio(float64(n.examined), float64(n.returned)), "ratio")

	rep.set("relation.search_us", micros(p50("relation.search")), "us")
	rep.set("relation.fetch_us_per_row", ratio(micros(sum(st.dur["relation.fetch"])), float64(n.fetched)), "us")
	rep.set("relation.decode_ns_per_tuple", ratio(nanos(sum(st.dur["relation.decode"])), float64(n.gets)), "ns")
	rep.set("relation.juxtapose_ms", millis(p50("relation.juxtapose")), "ms")
	rep.set("relation.insert_us", ratio(micros(sum(st.dur["write.apply"])), float64(n.tuples)), "us")
	rep.set("relation.repacks", float64(l.delta.repacks), "count")
	rep.set("relation.repack_ms", millis(l.repack), "ms")
	rep.set("relation.write_side_items", float64(l.writeSide), "count")
	rep.set("relation.shard_imbalance", l.imbalance, "ratio")

	rep.set("rtree.query_us", micros(p50("rtree.query")), "us")
	rep.set("rtree.nodes_per_query", ratio(float64(n.rtreeNodes), float64(n.rtreeQueries)), "count")
	rep.set("rtree.juxtapose_ms", millis(p50("rtree.juxtapose")), "ms")
	rep.set("rtree.coverage", l.tree.Coverage, "area")
	rep.set("rtree.overlap", l.tree.Overlap, "area")
	rep.set("rtree.height", float64(l.tree.Depth), "count")
	rep.set("rtree.nodes", float64(l.tree.Nodes), "count")

	rep.set("pack.tree_ms", millis(l.packTree), "ms")
	rep.set("pack.items_per_s", ratio(float64(l.packItems), l.packTree.Seconds()), "1/s")
	rep.set("geom.hilbert_ns", l.hilbertNS, "ns")

	rep.set("storage.get_ns", ratio(nanos(sum(st.dur["storage.get"])), float64(n.gets)), "ns")
	rep.set("storage.insert_ns", l.storageInsertNS, "ns")
	rep.set("storage.bytes_per_user_byte", ratio(float64(l.heapBytes), float64(l.b.liveUserBytes())), "ratio")

	pool := l.delta.pool
	rep.set("pager.pin_ns", ratio(nanos(sum(st.dur["pager.pin"])), float64(n.pins)), "ns")
	rep.set("pager.pool_hit_frac", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "ratio")
	rep.set("pager.mmap_pin_frac", ratio(float64(pool.MmapPins), float64(pool.Hits+pool.Misses+pool.MmapPins)), "ratio")
	rep.set("pager.evictions", float64(pool.Evictions), "count")
	rep.set("pager.commit_us", micros(percentile(st.self["pictdb.write"], 50)), "us")
	rep.set("pager.wal_syncs_per_commit", ratio(float64(l.delta.wal.Syncs), float64(n.writes)), "ratio")
	rep.set("pager.wal_frames_per_commit", ratio(float64(l.delta.wal.Frames), float64(n.writes)), "ratio")
	rep.set("pager.wal_checkpoints", float64(l.delta.wal.Checkpoints), "count")
	rep.set("pager.wal_bytes_per_user_byte", ratio(float64(n.walBytes), float64(n.walUser)), "ratio")
	rep.set("pager.wal_io_us", micros(percentile(l.walIO, 50)), "us")
	rep.set("pager.checkpoint_ms", millis(l.walCkpt), "ms")
	rep.set("pager.open_ms", millis(pagerOpen), "ms")

	rep.set("pictdb.writes_per_s", ratio(float64(n.tuples), l.elapsed.Seconds()), "1/s")
	rep.set("pictdb.write_us", micros(p50("pictdb.write")), "us")
	rep.set("pictdb.write_p99_us", micros(percentile(st.dur["pictdb.write"], 99)), "us")
	rep.set("pictdb.catalog_load_ms", millis(catalogLoad), "ms")
	rep.set("pictdb.checkpoint_ms", millis(checkpoint), "ms")
	rep.set("picture.add_ns", ratio(nanos(sum(st.dur["picture.add"])), float64(len(st.dur["picture.add"]))), "ns")
}
