package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	pictdb "repro"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/relation"
	"repro/internal/storage"
)

// workloadDef is the frozen shape of one workload. Flush policy is the
// engine's default everywhere: WAL on, one fsync per commit batch,
// 4 MiB WAL checkpoint threshold, delta threshold 4096.
type workloadDef struct {
	name    string
	pool    int // buffer-pool pages (per page file)
	readers int // closed-loop statement clients
	batch   int // tuples per Database.Write; 0 = no writer
	// deleteEvery folds one delete of a preloaded tuple into every n-th
	// Write.
	deleteEvery int
	shards      int // >0: CreateShardedRelation with this many shards
	// writeEvery paces the writer beside a reader: it starts a Write at
	// most this often, well below what it could sustain, so the reader
	// meets the same write load whatever the device's fsync costs at the
	// moment. 0 = unpaced.
	writeEvery time.Duration
	rel, pic   string
	indexPop   bool // B-tree on pop
	// sample is the size of the fixed read-back sample; every
	// naiveEvery-th statement of it is re-run through QueryNaive, which
	// scans whole relations (0.1 to 1 s a statement at full scale).
	sample, naiveEvery int
}

var workloads = []workloadDef{
	{name: "window_read", pool: 4096, readers: 2, rel: "cities", pic: "citymap", indexPop: true, sample: 512, naiveEvery: 64},
	{name: "join_nested", pool: 4096, readers: 2, rel: "sites", pic: "sitemap", indexPop: true, sample: 48, naiveEvery: 16},
	{name: "durable_ingest", pool: 256, batch: 1, deleteEvery: 10, rel: "cities", pic: "citymap", indexPop: true, sample: 128, naiveEvery: 16},
	// No B-tree here: a B-tree-driven plan resolves locs through
	// Picture.Get, which is not safe beside the writer's AddPoint.
	{name: "mixed_sharded", pool: 1024, readers: 1, batch: 32, shards: 4, writeEvery: 10 * time.Millisecond, rel: "cities", pic: "citymap", sample: 512, naiveEvery: 64},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

const (
	setupReps   = 3   // set-ups per untraced run; setup_s is their median
	segments    = 10  // the timed region runs in this many parts; a timing metric is the median over them
	retainEvery = 100 // every n-th timed read statement is kept and re-checked
	replayEvery = 5   // every n-th traced operation replays the layer calls
)

var pointSchema = pictdb.MustSchema("name:string", "pop:int", "loc:loc")

// bench is one run of one workload.
type bench struct {
	cfg  config
	def  workloadDef
	in   *inputs
	dir  string // scratch directory of this run
	path string

	db      *pictdb.Database
	main    *pager.Pager // the main page file's pager; a traced run keeps it
	walWait atomic.Int64 // time inside the WAL files' system calls, in a traced run
	rel     *pictdb.Relation
	pic     *pictdb.Picture
	regions *pictdb.Relation // join_nested only

	readers, writers []*client
	baseIDs          []storage.TupleID // preloaded tuples, in insertion order
	written          int               // in.writeRow(0..written-1) are acknowledged
	totalRows        int               // the writer's sequence is topped up to this length
	attempted        int
	failed           int
	notes            []string
	layer            *layerStats // non-nil in traced runs
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

func pointTuple(r row, pic string, oid pictdb.ObjectID) pictdb.Tuple {
	return pictdb.Tuple{pictdb.S(r.name), pictdb.I(r.pop), pictdb.L(pic, oid)}
}

// build creates, loads, packs and checkpoints the workload's database
// at path through the public API, then closes it.
func (b *bench) build(path string) (err error) {
	db, err := pictdb.Open(path, b.def.pool)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	pic, err := db.CreatePicture(b.def.pic, frame)
	if err != nil {
		return err
	}
	var rel *pictdb.Relation
	if b.def.shards > 0 {
		rel, err = db.CreateShardedRelation(b.def.rel, pointSchema, b.def.shards)
	} else {
		rel, err = db.CreateRelation(b.def.rel, pointSchema)
	}
	if err != nil {
		return err
	}
	b.baseIDs = b.baseIDs[:0]
	for _, r := range b.in.base {
		id, err := rel.Insert(pointTuple(r, b.def.pic, pic.AddPoint(r.name, r.pt)))
		if err != nil {
			return err
		}
		b.baseIDs = append(b.baseIDs, id)
	}
	if b.def.indexPop {
		if err := rel.CreateIndex("pop"); err != nil {
			return err
		}
	}
	hilbert := pictdb.PackOptions{Method: pictdb.PackHilbert}
	if err := rel.AttachPicture(pic, hilbert); err != nil {
		return err
	}
	if len(b.in.regions) > 0 {
		rpic, err := db.CreatePicture("regionmap", frame)
		if err != nil {
			return err
		}
		regions, err := db.CreateRelation("regions", pictdb.MustSchema("tag:string", "kind:int", "loc:loc"))
		if err != nil {
			return err
		}
		for _, g := range b.in.regions {
			oid := rpic.AddRegion(g.tag, geom.RectPoly(g.rect))
			if _, err := regions.Insert(pictdb.Tuple{pictdb.S(g.tag), pictdb.I(g.kind), pictdb.L("regionmap", oid)}); err != nil {
				return err
			}
		}
		if err := regions.AttachPicture(rpic, hilbert); err != nil {
			return err
		}
	}
	return db.Checkpoint()
}

// setup generates the inputs and builds the database, several times in
// an untraced run so that setup_s is a median; the last build is kept.
func (b *bench) setup() (time.Duration, error) {
	reps := setupReps
	if b.cfg.trace {
		reps = 1
	}
	var times []time.Duration
	for i := 0; i < reps; i++ {
		b.path = filepath.Join(b.dir, fmt.Sprintf("build%d.db", i))
		t0 := time.Now()
		b.in = generate(b.def.name, b.cfg.seed, b.cfg.quick)
		if err := b.build(b.path); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		if i > 0 {
			if err := removeDB(filepath.Join(b.dir, fmt.Sprintf("build%d.db", i-1))); err != nil {
				return 0, err
			}
		}
	}
	return percentile(times, 50), nil
}

// dbFiles lists the page file, its shard files and every WAL sidecar.
func dbFiles(path string) ([]string, error) {
	return filepath.Glob(path + "*")
}

func removeDB(path string) error {
	files, err := dbFiles(path)
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// walFile is a WAL file that adds up the time its write and fsync calls
// take, for the traced run's pager.wal_io_us: how much of a commit is
// the device's.
type walFile struct {
	*os.File
	wait *atomic.Int64
}

func (f walFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.wait.Add(int64(time.Since(t0)))
	return n, err
}

func (f walFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.wait.Add(int64(time.Since(t0)))
	return err
}

// openPager opens one page file as pictdb.Open does (WAL recovered and
// attached, mmap best effort), with the WAL file's system calls timed.
func (b *bench) openPager(path string) (*pager.Pager, error) {
	p, err := pager.Open(path, b.def.pool)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(pager.WALPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err == nil {
		if err = p.EnableWALBackend(walFile{f, &b.walWait}); err != nil {
			err = errors.Join(err, f.Close())
		}
	}
	if err != nil {
		p.Close()
		return nil, err
	}
	_ = p.EnableMmap()
	return p, nil
}

func (b *bench) openShardPager(rel string, shard int, mustExist bool) (*pager.Pager, error) {
	sp := pictdb.ShardPath(b.path, rel, shard)
	if mustExist {
		if _, err := os.Stat(sp); err != nil {
			return nil, err
		}
	}
	return b.openPager(sp)
}

// open opens the database and answers one statement: through
// pictdb.Open, or, in a traced run, which needs the pagers' handles, by
// making pictdb.Open's calls itself and timing the two halves.
func (b *bench) open() (pagerOpen, catalogLoad time.Duration, err error) {
	t0 := time.Now()
	if !b.cfg.trace {
		b.db, err = pictdb.Open(b.path, b.def.pool)
	} else if b.main, err = b.openPager(b.path); err == nil {
		pagerOpen = time.Since(t0)
		t1 := time.Now()
		b.db, err = pictdb.OpenWithPagerShards(b.main, b.openShardPager)
		catalogLoad = time.Since(t1)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("open: %w", err)
	}
	var ok bool
	if b.rel, ok = b.db.Relation(b.def.rel); !ok {
		return 0, 0, fmt.Errorf("open: relation %q missing", b.def.rel)
	}
	if b.pic, ok = b.db.Picture(b.def.pic); !ok {
		return 0, 0, fmt.Errorf("open: picture %q missing", b.def.pic)
	}
	b.regions, _ = b.db.Relation("regions")
	if _, err := b.db.Query(b.in.stmts[b.in.seqs[0][0]].text); err != nil {
		return 0, 0, fmt.Errorf("open: first statement: %w", err)
	}
	return pagerOpen, catalogLoad, nil
}

// timedOpens closes the database and opens it cold, at least 5 times
// and until 3 s have gone into it (15 times at most: a short open needs
// more repetitions to shrug off a burst of interference), and leaves it
// open. It returns the medians of the whole open and of its two halves
// (zero when untraced).
func (b *bench) timedOpens() (whole, pagerOpen, catalogLoad time.Duration, err error) {
	var ws, ps, cs []time.Duration
	for len(ws) < 5 || (sum(ws) < 3*time.Second && len(ws) < 15) {
		if err := b.db.Close(); err != nil {
			return 0, 0, 0, fmt.Errorf("close: %w", err)
		}
		t0 := time.Now()
		p, c, err := b.open()
		if err != nil {
			return 0, 0, 0, err
		}
		ws, ps, cs = append(ws, time.Since(t0)), append(ps, p), append(cs, c)
	}
	return percentile(ws, 50), percentile(ps, 50), percentile(cs, 50), nil
}

// retained is a timed statement's result kept for the re-check.
type retained struct {
	stmt int32
	res  *pictdb.Result
}

// client is one closed-loop client goroutine's record.
type client struct {
	seq      []int32
	pos      int
	lat      []time.Duration // one sample per completed operation
	errs     []error         // engine errors: counted, not fatal
	retained []retained
	rows     []row // the writer's batch buffer
	tr       *tracer
	walIO    []time.Duration // per traced Write: time inside the WAL files' system calls
	n        layerCounts
}

// region is the timed part of a run: every client runs its loop until
// dur has passed. It returns the wall time until the last client
// finished its operation in flight.
func (b *bench) region(dur time.Duration) time.Duration {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range b.readers {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			b.readLoop(ctx, c)
		}(c)
	}
	for _, c := range b.writers {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			b.writeLoop(ctx, c)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (b *bench) readLoop(ctx context.Context, c *client) {
	for ctx.Err() == nil {
		si := c.seq[c.pos%len(c.seq)]
		s := &b.in.stmts[si]
		var res *pictdb.Result
		var err error
		t0 := time.Now()
		if c.tr == nil {
			res, err = b.db.Query(s.text)
		} else {
			res, err = b.tracedQuery(c, s)
		}
		c.lat = append(c.lat, time.Since(t0))
		if err != nil {
			c.errs = append(c.errs, err)
		} else if b.def.batch == 0 && c.pos%retainEvery == 0 {
			// Only a read-only workload can re-check a result later.
			c.retained = append(c.retained, retained{si, res})
		}
		c.pos++
	}
}

func (b *bench) writeLoop(ctx context.Context, c *client) {
	var pace <-chan time.Time
	if b.def.writeEvery > 0 {
		t := time.NewTicker(b.def.writeEvery)
		defer t.Stop()
		pace = t.C
	}
	for ctx.Err() == nil {
		if pace != nil {
			select {
			case <-pace:
			case <-ctx.Done():
				return
			}
		}
		t0 := time.Now()
		err := b.write(c, b.def.batch)
		c.lat = append(c.lat, time.Since(t0))
		if err != nil {
			// A failed Write is fatal for the handle; stop writing.
			c.errs = append(c.errs, err)
			return
		}
	}
}

// deleteWith returns the preloaded tuple whose delete rides with the
// writer's i-th row, if any: the write sequence, deletes included, is a
// function of the row index alone.
func (b *bench) deleteWith(i int) *storage.TupleID {
	if every := b.def.deleteEvery; every > 0 && (i+1)%every == 0 && (i+1)/every <= len(b.baseIDs) {
		return &b.baseIDs[(i+1)/every-1]
	}
	return nil
}

// deleted is how many preloaded tuples the acknowledged writes deleted:
// a prefix of baseIDs.
func (b *bench) deleted() int {
	if b.def.deleteEvery == 0 {
		return 0
	}
	return min(b.written/b.def.deleteEvery, len(b.baseIDs))
}

// write commits the writer's next n rows (Picture.AddPoint +
// Relation.Insert each, plus the deletes that ride with them) as one
// durable Database.Write. A traced client also records the spans of the
// layers beneath: the Write, inside it the callback, and on a sampled
// operation each tuple's picture and relation calls. The Write's self
// time is then the commit: WAL append, fsync and acknowledgement.
func (b *bench) write(c *client, n int) error {
	tr := c.tr // nil when untraced; its methods are then no-ops
	first := b.written
	c.rows = c.rows[:0]
	for i := 0; i < n; i++ {
		c.rows = append(c.rows, b.in.writeRow(first+i))
	}
	tr.beginOp("op")
	defer tr.end()
	detail := tr.sampled()
	var size0, io0 int64
	var ckpt0 uint64
	if tr != nil {
		size0, ckpt0 = b.layer.walSizes()
		io0 = b.walWait.Load()
	}
	tr.begin("pictdb.write")
	err := b.db.Write(func() error {
		tr.begin("write.apply")
		defer tr.end()
		for i, r := range c.rows {
			if detail {
				tr.begin("picture.add")
			}
			oid := b.pic.AddPoint(r.name, r.pt)
			if detail {
				tr.end()
				tr.begin("relation.insert")
			}
			_, err := b.rel.Insert(pointTuple(r, b.def.pic, oid))
			if detail {
				tr.end()
			}
			if err != nil {
				return err
			}
			if del := b.deleteWith(first + i); del != nil {
				tr.begin("relation.delete")
				err := b.rel.Delete(*del)
				tr.end()
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	tr.end()
	if err != nil {
		return err
	}
	b.written += n
	if tr != nil {
		c.walIO = append(c.walIO, time.Duration(b.walWait.Load()-io0))
		c.n.writes++
		c.n.tuples += n
		// WAL bytes per user byte, over the writes under which no
		// checkpoint truncated the log.
		if size1, ckpt1 := b.layer.walSizes(); ckpt1 == ckpt0 {
			c.n.walBytes += size1 - size0
			for i, r := range c.rows {
				c.n.walUser += int64(len(relation.EncodeTuple(pointTuple(r, b.def.pic, pictdb.ObjectID(len(b.in.base)+first+i+1)))))
			}
		}
	}
	return nil
}

// topUp writes, untimed and in large batches, until the writer's
// sequence has reached the workload's fixed length: every run then ends
// in the same database whatever its speed, so open_s, nodes_per_stmt,
// bytes_per_user_byte and resident_mb do not inherit the timing noise.
func (b *bench) topUp() {
	c := &client{}
	for b.written < b.totalRows {
		b.attempted++
		if err := b.write(c, min(256, b.totalRows-b.written)); err != nil {
			b.fail("top-up write: %v", err)
			return
		}
	}
}

// hashRows folds a result's rows into h.
func hashRows(h io.Writer, res *pictdb.Result) {
	for _, r := range res.Rows {
		for _, d := range r {
			fmt.Fprintf(h, "%d:%s|", d.Kind, d)
		}
		fmt.Fprint(h, "\n")
	}
}

// samplePass runs the fixed read-back sample, the first statements of
// the statement list (whose make-up, unlike a client's order, is the
// same at every seed), through Query. It returns a checksum of every
// row and the mean nodes visited, and compares every naiveEvery-th
// statement row for row with QueryNaive.
func (b *bench) samplePass() (checksum string, nodesPerStmt float64) {
	h := sha256.New()
	nodes := 0
	n := min(b.def.sample, len(b.in.stmts))
	for i := 0; i < n; i++ {
		s := &b.in.stmts[i]
		b.attempted++
		res, err := b.db.Query(s.text)
		if err != nil {
			b.fail("sample query: %v", err)
			continue
		}
		nodes += res.NodesVisited
		hashRows(h, res)
		if i%b.def.naiveEvery != 0 {
			continue
		}
		b.attempted++
		want, err := b.db.QueryNaive(s.text)
		if err != nil {
			b.fail("naive query: %v", err)
			continue
		}
		if b.cfg.tamper && len(want.Rows) > 0 {
			want.Rows = want.Rows[:len(want.Rows)-1]
		}
		if !reflect.DeepEqual(res.Rows, want.Rows) {
			b.fail("statement %q: planned executor returned %d rows, naive executor %d", s.text, len(res.Rows), len(want.Rows))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], float64(nodes) / float64(n)
}

// recheck re-runs every retained timed statement on the quiescent
// database: a result produced under concurrency must equal it.
func (b *bench) recheck() {
	for _, c := range b.readers {
		for _, k := range c.retained {
			b.attempted++
			res, err := b.db.Query(b.in.stmts[k.stmt].text)
			if err != nil {
				b.fail("recheck query: %v", err)
			} else if !reflect.DeepEqual(res.Rows, k.res.Rows) {
				b.fail("statement %q: %d rows while timed, %d rows when re-run", b.in.stmts[k.stmt].text, len(k.res.Rows), len(res.Rows))
			}
		}
		c.retained = nil
	}
}

// verifyRows scans the reopened relation: every acknowledged row must
// be present, every deleted one absent, and nothing else.
func (b *bench) verifyRows() {
	b.attempted++
	names := make(map[string]struct{}, len(b.in.base)+b.written)
	err := b.rel.Scan(func(_ storage.TupleID, t pictdb.Tuple) bool {
		names[t[0].Str] = struct{}{}
		return true
	})
	if err != nil {
		b.fail("scan after reopen: %v", err)
		return
	}
	missing, undead := 0, 0
	for i, r := range b.in.base {
		if _, ok := names[r.name]; ok == (i < b.deleted()) {
			if ok {
				undead++
			} else {
				missing++
			}
		}
	}
	for i := 0; i < b.written; i++ {
		if _, ok := names[b.in.writeRow(i).name]; !ok {
			missing++
		}
	}
	want := len(b.in.base) - b.deleted() + b.written
	if missing > 0 || undead > 0 || len(names) != want {
		b.fail("after reopen: %d acknowledged rows missing, %d deleted rows present, %d rows where %d expected", missing, undead, len(names), want)
	}
}

// liveUserBytes is the EncodeTuple size of every live row.
func (b *bench) liveUserBytes() int64 {
	var n int64
	for i := b.deleted(); i < len(b.in.base); i++ {
		n += int64(len(relation.EncodeTuple(pointTuple(b.in.base[i], b.def.pic, pictdb.ObjectID(i+1)))))
	}
	for i := 0; i < b.written; i++ {
		n += int64(len(relation.EncodeTuple(pointTuple(b.in.writeRow(i), b.def.pic, pictdb.ObjectID(len(b.in.base)+i+1)))))
	}
	for i, g := range b.in.regions {
		n += int64(len(relation.EncodeTuple(pictdb.Tuple{pictdb.S(g.tag), pictdb.I(g.kind), pictdb.L("regionmap", pictdb.ObjectID(i+1))})))
	}
	return n
}

func diskBytes(path string) (int64, error) {
	files, err := dbFiles(path)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// liveHeap is the bytes of live heap objects after a forced collection
// (HeapInuse also counts the free part of partly used spans, which
// varies from run to run).
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (b *bench) clients() []*client {
	return append(append([]*client{}, b.readers...), b.writers...)
}

// drain counts every client's operations since the last drain (an
// engine error, the pool's "shard exhausted" included, is a failed
// operation) and returns the latencies of the workload's op: the
// statement where there are readers, else the Write.
func (b *bench) drain() []time.Duration {
	ops := b.readers
	if len(ops) == 0 {
		ops = b.writers
	}
	var lat []time.Duration
	for _, c := range ops {
		lat = append(lat, c.lat...)
	}
	for _, c := range b.clients() {
		b.attempted += len(c.lat)
		for _, err := range c.errs {
			b.fail("operation: %v", err)
		}
		c.lat, c.errs = c.lat[:0], nil
	}
	return lat
}

// measure runs the untraced timed region and sets the metrics read off
// it. The region runs in segments and each metric is the median over
// them, so a burst of interference from outside spoils one segment, not
// the run.
func (b *bench) measure(rep *report, total time.Duration) {
	var p50, p95, rate []float64
	for i := 0; i < segments; i++ {
		elapsed := b.region(total / segments)
		lat := b.drain()
		p50 = append(p50, micros(percentile(lat, 50)))
		p95 = append(p95, micros(percentile(lat, 95)))
		rate = append(rate, float64(len(lat))/elapsed.Seconds())
		rep.Samples += len(lat)
	}
	rep.set("op_p50_us", median(p50), "us")
	rep.set("op_p95_us", median(p95), "us")
	rep.set("ops_per_s", median(rate), "1/s")
}

// run executes the workload once and returns its report.
func run(cfg config) (rep *report, err error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := &bench{cfg: cfg, def: def, totalRows: sizesFor(def.name, cfg.quick).writes}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(cfg.dir, def.name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}()
	rep = newReport(cfg)

	setupTime, err := b.setup()
	if err != nil {
		return nil, err
	}
	// What the harness itself holds (the inputs, mostly) is not the
	// engine's.
	harnessHeap := liveHeap()
	if _, _, err := b.open(); err != nil {
		return nil, err
	}
	defer func() {
		if b.db != nil {
			if cerr := b.db.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close: %w", cerr)
			}
		}
	}()

	b.readers = make([]*client, def.readers)
	for i := range b.readers {
		b.readers[i] = &client{seq: b.in.seqs[i]}
	}
	if def.batch > 0 {
		b.writers = []*client{{}}
	}

	// Warm-up: fills the statement cache and the pool, untimed.
	total := time.Duration(cfg.seconds * float64(time.Second))
	b.region(total / 10)
	b.drain()

	if !cfg.trace {
		b.measure(rep, total)
		rep.set("setup_s", setupTime.Seconds(), "s")
	} else {
		// A quarter of the time untraced, to price the tracing itself.
		b.region(total / 4)
		b.layer = &layerStats{b: b, plainOp: percentile(b.drain(), 50)}
		t0 := time.Now()
		for i, c := range b.clients() {
			c.tr = newTracer(i, t0)
		}
		b.layer.beginRegion()
		elapsed := b.region(total - total/4)
		b.layer.endRegion(b.clients(), elapsed)
		b.drain()
	}

	// Quiesce, then check outputs outside the timed region.
	b.topUp()
	b.db.WaitRepacks()
	b.recheck()
	if !cfg.trace {
		rep.set("resident_mb", float64(liveHeap()-harnessHeap)/(1<<20), "MiB")
	}
	checksum, nodes := b.samplePass()
	if b.layer != nil {
		if err := b.layer.endState(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if err := b.db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	checkpointTime := time.Since(t0)
	whole, pagerOpen, catalogLoad, err := b.timedOpens()
	if err != nil {
		return nil, err
	}
	if def.batch > 0 {
		b.verifyRows()
		b.attempted++
		// A write workload's nodes_per_stmt is read here, off the tree
		// PACK builds from the ingested rows: before the reopen it also
		// counts a write side whose size depends on when time ran out.
		var again string
		if again, nodes = b.samplePass(); again != checksum {
			b.fail("read-back sample changed across Checkpoint/Close/reopen: %s then %s", checksum, again)
		}
	}
	if err := b.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	b.db = nil
	disk, err := diskBytes(b.path)
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		rep.set("open_s", whole.Seconds(), "s")
		rep.set("nodes_per_stmt", nodes, "count")
		rep.set("bytes_per_user_byte", float64(disk)/float64(b.liveUserBytes()), "ratio")
	} else {
		b.layer.report(rep, pagerOpen, catalogLoad, checkpointTime)
		tracePath := filepath.Join(cfg.dir, "trace-"+def.name+".jsonl")
		if err := writeTrace(tracePath, b.layer.tracers); err != nil {
			return nil, err
		}
		rep.TraceFile = tracePath
	}
	rep.RowsChecksum = checksum
	rep.Attempted, rep.Failed, rep.Correct = b.attempted, b.failed, b.failed == 0
	rep.Notes = b.notes
	sort.Strings(rep.Notes)
	return rep, nil
}
