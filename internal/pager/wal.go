package pager

// Write-ahead log with group commit.
//
// Every pager that writes keeps a log: EnableWAL puts it in a sidecar
// file, EnableWALBackend in any Backend, and OpenMem in memory. Commit
// never rewrites the page file in place. The commit leader captures
// every dirty pool page as a CRC-32C-framed, generation-stamped record
// appended to the log, follows them with a commit record carrying the
// header state (page count, free-list head), and fsyncs once for the
// whole batch. Concurrent committers enqueue; whichever arrives first
// becomes the leader, drains the queue, and acknowledges every batched
// writer after the single sync — group commit. The page file itself is
// only rewritten by checkpoints and by recovery, through one write-back
// step (data, sync, header, sync), so a torn in-place page write can no
// longer destroy committed data.
//
// Reads consult the WAL first: a page whose latest image lives in a
// committed-or-captured WAL frame is served from the frame (frame CRC
// verified), everything else from the page file. Dirty pages are never
// stolen to the page file — eviction skips them — so the page file
// always holds exactly the last checkpointed state.
//
// Recovery: on open, committed WAL records are replayed into the page
// file by the same write-back step and the WAL is truncated. A torn
// tail — any bytes past the last record whose CRC validates through a
// commit record — is discarded; InspectWAL distinguishes that tolerated
// tail from corruption *before* the last commit point, which is data
// loss and reported as such.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// WAL file format constants.
const (
	walHeaderSize   = 16
	frameHeaderSize = 24
	frameTrailer    = 4 // CRC-32C over header+payload

	frameKindPage   = 1
	frameKindCommit = 2

	// commitPayloadSize is the commit record payload: page count and
	// free-list head of the committed header state.
	commitPayloadSize = 8
)

// frameMagic opens every WAL record, letting InspectWAL resynchronize
// past a corrupt region to find later records.
const frameMagic uint32 = 0x57414C46 // "FLAW" little-endian, reads "WALF"

var walMagic = [8]byte{'P', 'I', 'C', 'T', 'W', 'A', 'L', '1'}

// ErrNoWAL is returned by every write to a pager without a log: such a
// pager is a reader.
var ErrNoWAL = errors.New("pager: no write-ahead log enabled")

// walFrame locates one page image inside the WAL.
type walFrame struct {
	gen uint64
	off int64 // offset of the frame header
}

// walState is the runtime state of an enabled WAL.
type walState struct {
	backend Backend
	path    string // for error messages

	// commitMu serializes batch leaders, checkpoints, and recovery: at
	// most one of them touches the WAL tail at a time.
	commitMu sync.Mutex

	// qmu guards the group-commit queue and the leader flag.
	qmu    sync.Mutex
	queue  []chan error
	leader bool

	// imu guards the frame index, append offset, committed header
	// state, and counters. Readers (WAL-aware fetches) take it shared
	// and briefly.
	imu sync.RWMutex
	// index lists each page's frames in ascending generation. Readers
	// want only the newest, but a batch is indexed before its fsync: when
	// that fsync fails the newest frame is unacknowledged, and the list
	// is what lets a checkpoint still find — and backfill — the newest
	// acknowledged image beneath it instead of truncating it away with
	// the log (TestWALAppendFaults, "checkpoint after failed wal sync").
	index map[PageID][]walFrame
	size  int64 // append offset (next frame lands here)
	// frames counts the entries of index. It is written only where
	// index is, under imu, and read without it: a log holding no frame
	// (a read-only workload, or any time after a checkpoint) answers
	// hasFrame with one load.
	frames atomic.Int64

	committedGen      uint64
	committedNumPages uint32
	committedFreeHead PageID

	stats WALStats

	// checkpointEvery triggers an automatic checkpoint once the WAL
	// grows past this many bytes.
	checkpointEvery int64
}

// WALStats reports write-ahead log activity.
type WALStats struct {
	Commits     uint64 // Commit calls acknowledged through the WAL
	Batches     uint64 // fsync batches (group commit: Commits/Batches writers per sync)
	Frames      uint64 // page records appended
	Syncs       uint64 // WAL fsyncs issued
	Checkpoints uint64 // backfills of the page file
	Size        int64  // current WAL size in bytes
	LastGen     uint64 // last durably committed generation
}

// defaultWALCheckpointBytes is the automatic checkpoint threshold.
const defaultWALCheckpointBytes = 4 << 20

// WALPath returns the sidecar path of the write-ahead log for a page
// file at path.
func WALPath(path string) string { return path + ".wal" }

// EnableWAL opens (or creates) the WAL sidecar next to a file-backed
// pager, recovers any committed records it holds into the page file,
// and makes the pager a writer. Call it immediately after Open, before
// mutations.
func (p *Pager) EnableWAL() error {
	if p.closed.Load() {
		return ErrClosed
	}
	if _, ok := p.backend.(*os.File); !ok {
		return fmt.Errorf("pager: EnableWAL: backend %T is not a file (use EnableWALBackend)", p.backend)
	}
	f, err := os.OpenFile(WALPath(p.path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("pager: open wal: %w", err)
	}
	if err := p.enableWAL(f, WALPath(p.path)); err != nil {
		f.Close()
		return err
	}
	return nil
}

// EnableWALBackend attaches a write-ahead log stored in b — the seam
// the fault-injection and crash-point harnesses use to run the WAL
// over torn, failing, or captured storage. Existing committed
// records in b are recovered into the page file first.
func (p *Pager) EnableWALBackend(b Backend) error {
	if p.closed.Load() {
		return ErrClosed
	}
	return p.enableWAL(b, "(wal backend)")
}

func (p *Pager) enableWAL(b Backend, path string) error {
	if p.wal.Load() != nil {
		return fmt.Errorf("pager: WAL already enabled")
	}
	w := &walState{
		backend:         b,
		path:            path,
		index:           make(map[PageID][]walFrame),
		checkpointEvery: defaultWALCheckpointBytes,
	}
	if err := p.recoverWAL(w); err != nil {
		return err
	}
	// The page file is now the recovered, committed state; seed the
	// committed marks from it.
	p.hmu.Lock()
	w.committedGen = p.gen
	w.committedNumPages = p.numPages.Load()
	w.committedFreeHead = p.freeHead
	p.hmu.Unlock()
	p.wal.Store(w)
	return nil
}

// WALStats returns a snapshot of the WAL counters; a reader, which has
// no log, has logged nothing and reports the zero value.
func (p *Pager) WALStats() WALStats {
	w := p.wal.Load()
	if w == nil {
		return WALStats{}
	}
	w.imu.RLock()
	defer w.imu.RUnlock()
	s := w.stats
	s.Size = w.size
	s.LastGen = w.committedGen
	return s
}

// BeginWrite takes the write gate, the pager's one writer lock, for a
// multi-page logical mutation: one mutation holds it at a time, and the
// WAL commit leader captures page images under it, so a batch never
// contains half a mutation. A caller mutating beside other goroutines
// holds the gate for the whole mutation and releases it before Commit;
// a single-goroutine caller needs no gate (its own Commit orders after
// its mutations).
func (p *Pager) BeginWrite() { p.writeGate.Lock() }

// EndWrite releases the gate taken by BeginWrite.
func (p *Pager) EndWrite() { p.writeGate.Unlock() }

// --- frame encoding ---------------------------------------------------

// appendFrame appends one framed record to buf:
//
//	bytes 0..3   frame magic "WALF"
//	byte  4      kind (1 page, 2 commit)
//	bytes 5..7   reserved (zero)
//	bytes 8..15  generation
//	bytes 16..19 page id (page frames) / page-frame count (commit frames)
//	bytes 20..23 payload length
//	payload
//	4 bytes      CRC-32C over header and payload
func appendFrame(buf []byte, kind byte, gen uint64, ref uint32, payload []byte) []byte {
	start := len(buf)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = kind
	binary.LittleEndian.PutUint64(hdr[8:16], gen)
	binary.LittleEndian.PutUint32(hdr[16:20], ref)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

func frameSize(payloadLen int) int64 {
	return int64(frameHeaderSize + payloadLen + frameTrailer)
}

// readFrameAt parses the frame at off, verifying magic and CRC.
func readFrameAt(r io.ReaderAt, off int64) (kind byte, gen uint64, ref uint32, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return 0, 0, 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return 0, 0, 0, nil, fmt.Errorf("%w: wal record at %d: bad frame magic", ErrChecksum, off)
	}
	plen := binary.LittleEndian.Uint32(hdr[20:24])
	if plen > PageSize {
		return 0, 0, 0, nil, fmt.Errorf("%w: wal record at %d: payload length %d", ErrChecksum, off, plen)
	}
	body := make([]byte, int(plen)+frameTrailer)
	if _, err := r.ReadAt(body, off+frameHeaderSize); err != nil {
		return 0, 0, 0, nil, err
	}
	payload = body[:plen]
	want := binary.LittleEndian.Uint32(body[plen:])
	sum := crc32.Checksum(hdr[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, payload)
	if sum != want {
		return 0, 0, 0, nil, fmt.Errorf("%w: wal record at %d: stored %#08x, computed %#08x", ErrChecksum, off, want, sum)
	}
	return hdr[4], binary.LittleEndian.Uint64(hdr[8:16]), binary.LittleEndian.Uint32(hdr[16:20]), payload, nil
}

// checkRecord reports whether a record whose CRC validated also makes
// sense as the next record of a batch holding pending page records so
// far: the CRC vouches for the bytes, not for their sense. Recovery and
// InspectWAL both stop trusting the log at the first record that fails
// it, so the report's verdict is about what recovery will replay.
func checkRecord(kind byte, ref uint32, payload []byte, pending uint32) error {
	switch kind {
	case frameKindPage:
		if len(payload) != PageSize {
			return fmt.Errorf("%w: page record of %d bytes", ErrChecksum, len(payload))
		}
	case frameKindCommit:
		if len(payload) != commitPayloadSize || ref != pending {
			return fmt.Errorf("%w: commit record of %d bytes closing %d of %d page records", ErrChecksum, len(payload), ref, pending)
		}
		numPages, freeHead := commitState(payload)
		if numPages == 0 || uint32(freeHead) >= numPages {
			return fmt.Errorf("%w: commit record: free head %d with %d page(s)", ErrPageRange, freeHead, numPages)
		}
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrChecksum, kind)
	}
	return nil
}

// commitState decodes a commit record's payload: the page count and
// free-list head of the header state it commits.
func commitState(payload []byte) (numPages uint32, freeHead PageID) {
	return binary.LittleEndian.Uint32(payload[0:4]), PageID(binary.LittleEndian.Uint32(payload[4:8]))
}

// writeWALHeader initializes an empty WAL: magic, version, CRC.
func writeWALHeader(b Backend) error {
	var hdr [walHeaderSize]byte
	copy(hdr[0:8], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], 1)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(hdr[:12], castagnoli))
	if _, err := b.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("pager: write wal header: %w", err)
	}
	return nil
}

// readWALHeader reads and checks the header at the start of r. empty
// reports a log shorter than its header, through which nothing was ever
// committed: the header is written and synced before the first record.
func readWALHeader(r io.ReaderAt) (empty bool, err error) {
	var hdr [walHeaderSize]byte
	n, err := r.ReadAt(hdr[:], 0)
	switch {
	case (err == io.EOF || err == io.ErrUnexpectedEOF) && n < walHeaderSize:
		return true, nil
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return false, fmt.Errorf("read header: %w", err)
	}
	if [8]byte(hdr[0:8]) != walMagic {
		return false, fmt.Errorf("%w: got %q", ErrBadMagic, hdr[0:8])
	}
	if crc32.Checksum(hdr[:12], castagnoli) != binary.LittleEndian.Uint32(hdr[12:16]) {
		return false, fmt.Errorf("header: %w", ErrChecksum)
	}
	return false, nil
}

// --- group commit -----------------------------------------------------

// commitWAL is Commit past its checks: enqueue, and either wait for a
// leader's batch to cover this request or become the leader and drain
// the queue, one fsync per batch.
func (p *Pager) commitWAL(w *walState) error {
	ch := make(chan error, 1)
	w.qmu.Lock()
	w.queue = append(w.queue, ch)
	if w.leader {
		w.qmu.Unlock()
		return <-ch
	}
	w.leader = true
	w.qmu.Unlock()
	for {
		w.qmu.Lock()
		batch := w.queue
		w.queue = nil
		if len(batch) == 0 {
			w.leader = false
			w.qmu.Unlock()
			return <-ch
		}
		w.qmu.Unlock()
		err := p.walCommitBatch(w, len(batch))
		for _, c := range batch {
			c <- err
		}
	}
}

// walCommitBatch appends one generation — every dirty pool page plus a
// commit record — and fsyncs it. Page images are captured under the
// write gate, so no in-flight mutation can be half-captured;
// the fsync happens outside the gate, so writers resume mutating while
// the batch hardens.
func (p *Pager) walCommitBatch(w *walState, writers int) error {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	if p.readOnly.Load() {
		return ErrReadOnly
	}
	p.writeGate.Lock()
	p.hmu.Lock()
	p.gen++
	gen := p.gen
	numPages := p.numPages.Load()
	freeHead := p.freeHead
	p.hmu.Unlock()

	// Capture every dirty page, in page order for reproducible logs.
	caps := p.dirtyPages()

	buf := make([]byte, 0, len(caps)*(frameHeaderSize+PageSize+frameTrailer)+frameHeaderSize+commitPayloadSize+frameTrailer)
	offs := make([]int64, len(caps))
	w.imu.RLock()
	base := w.size
	w.imu.RUnlock()
	for i, pg := range caps {
		stampTrailer(pg.Data[:])
		offs[i] = base + int64(len(buf))
		buf = appendFrame(buf, frameKindPage, gen, uint32(pg.ID), pg.Data[:])
	}
	var commitPayload [commitPayloadSize]byte
	binary.LittleEndian.PutUint32(commitPayload[0:4], numPages)
	binary.LittleEndian.PutUint32(commitPayload[4:8], uint32(freeHead))
	buf = appendFrame(buf, frameKindCommit, gen, uint32(len(caps)), commitPayload[:])

	if _, err := w.backend.WriteAt(buf, base); err != nil {
		p.writeGate.Unlock()
		return fmt.Errorf("pager: wal append: %w", err)
	}
	// The records are in the WAL (though not yet durable): publish the
	// frame index so evicted pages re-read their newest image, and mark
	// the captured pages clean — nothing re-dirties them while the gate
	// is held.
	w.imu.Lock()
	for i, pg := range caps {
		id := pg.ID
		w.index[id] = append(w.index[id], walFrame{gen: gen, off: offs[i]})
	}
	w.frames.Add(int64(len(caps)))
	w.size = base + int64(len(buf))
	w.stats.Frames += uint64(len(caps))
	w.imu.Unlock()
	p.pmu.Lock()
	for _, pg := range caps {
		pg.dirty = false
	}
	p.pmu.Unlock()
	p.writeGate.Unlock()

	if err := w.backend.Sync(); err != nil {
		return p.failStop(fmt.Errorf("pager: wal sync: %w", err))
	}
	w.imu.Lock()
	w.committedGen = gen
	w.committedNumPages = numPages
	w.committedFreeHead = freeHead
	w.stats.Commits += uint64(writers)
	w.stats.Batches++
	w.stats.Syncs++
	auto := w.size >= walHeaderSize+w.checkpointEvery
	w.imu.Unlock()
	if auto {
		// Best-effort (still under commitMu): skipped while mmap views
		// pin old page images; the WAL keeps growing until they release.
		_ = p.checkpointWALLocked(w, false)
	}
	return nil
}

// latestFrame returns the newest WAL frame for id.
func (w *walState) latestFrame(id PageID) (walFrame, bool) {
	w.imu.RLock()
	defer w.imu.RUnlock()
	frames := w.index[id]
	if len(frames) == 0 {
		return walFrame{}, false
	}
	return frames[len(frames)-1], true
}

// hasFrame reports whether any WAL frame exists for id — when true,
// the page file image of id may be stale and reads must go through the
// WAL-aware pool path instead of the mmap.
func (w *walState) hasFrame(id PageID) bool {
	if w.frames.Load() == 0 {
		return false
	}
	w.imu.RLock()
	defer w.imu.RUnlock()
	return len(w.index[id]) > 0
}

// readFrameImage reads the page image of frame f into dst (PageSize
// bytes), verifying the frame CRC.
func (w *walState) readFrameImage(f walFrame, id PageID, dst []byte) error {
	kind, gen, ref, payload, err := readFrameAt(w.backend, f.off)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// The index holds a frame the log does not: a lying medium kept
		// only part of an append it acknowledged.
		return fmt.Errorf("pager: wal frame for page %d at %d: %w", id, f.off, ErrTruncated)
	}
	if err != nil {
		return fmt.Errorf("pager: wal frame for page %d: %w", id, err)
	}
	if kind != frameKindPage || gen != f.gen || PageID(ref) != id || len(payload) != PageSize {
		return fmt.Errorf("%w: wal frame at %d does not describe page %d gen %d", ErrChecksum, f.off, id, f.gen)
	}
	copy(dst, payload)
	return nil
}

// --- checkpoint -------------------------------------------------------

// CheckpointWAL backfills every committed WAL page image into the page
// file by the one write-back step and truncates the WAL. It fails while
// zero-copy mmap views are pinned: the backfill would rewrite the bytes
// they read. A reader, which has no log, refuses with ErrNoWAL.
func (p *Pager) CheckpointWAL() error {
	w := p.wal.Load()
	if w == nil {
		return ErrNoWAL
	}
	return p.checkpointWAL(w, true)
}

func (p *Pager) checkpointWAL(w *walState, must bool) error {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	return p.checkpointWALLocked(w, must)
}

func (p *Pager) checkpointWALLocked(w *walState, must bool) error {
	w.imu.RLock()
	empty := w.size <= walHeaderSize
	w.imu.RUnlock()
	if empty {
		return nil
	}
	// A backfill rewrites page-file bytes that pinned mmap views may be
	// reading; defer until they release.
	if pins := heldReaders(p.mappings()); pins > 0 {
		if must {
			return fmt.Errorf("pager: checkpoint with %d pinned mmap view(s)", pins)
		}
		return nil
	}
	return p.fold(w)
}

// fold is a checkpoint past its checks: it writes the newest committed
// image of every logged page back, empties the log and remaps the grown
// file. Caller holds commitMu.
func (p *Pager) fold(w *walState) error {
	// Latest committed frame per page: a frame past gen belongs to a
	// batch whose fsync failed and was never acknowledged. No leader runs
	// concurrently (commitMu), so the index is stable.
	w.imu.RLock()
	gen := w.committedGen
	numPages := w.committedNumPages
	freeHead := w.committedFreeHead
	latest := make(map[PageID]walFrame, len(w.index))
	for id, frames := range w.index {
		for i := len(frames) - 1; i >= 0; i-- {
			if frames[i].gen <= gen {
				latest[id] = frames[i]
				break
			}
		}
	}
	w.imu.RUnlock()
	if err := p.writeBack(w, latest, numPages, freeHead); err != nil {
		return err
	}
	// The page file now carries generation gen in full. Retire the
	// index BEFORE truncating the log bytes: concurrent readers (pool
	// misses) that consult the index after this point resolve to the
	// freshly backfilled page file; readers that resolved a frame just
	// before retirement and lose the race to the truncate retry against
	// the index (see latestFrame's caller). A crash before the truncate
	// only means recovery replays the same images again.
	w.imu.Lock()
	w.index = make(map[PageID][]walFrame)
	w.frames.Store(0)
	w.size = walHeaderSize
	w.stats.Checkpoints++
	w.stats.Syncs++
	w.imu.Unlock()
	if err := w.reset(); err != nil {
		return err
	}
	p.tryRemap()
	return nil
}

// writeBack is the one writer of the page file. It reads and verifies
// the image of every frame in frames, then writes each to its page, in
// page order, syncs, writes a header for (numPages, freeHead) into the
// inactive slot, and syncs again: a crash at any point leaves a header
// that describes only synced pages, and the step repeated after it
// (recovery replays the same log) lands in the same state. A frame that
// does not read back (a torn append) fails the step before any page is
// written, so the page file never holds part of a generation the log
// cannot replay. Checkpoints and recovery call it; caller holds
// commitMu.
func (p *Pager) writeBack(w *walState, frames map[PageID]walFrame, numPages uint32, freeHead PageID) error {
	ids := make([]PageID, 0, len(frames))
	for id := range frames {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	imgs := make([]byte, len(ids)*PageSize)
	for i, id := range ids {
		if err := w.readFrameImage(frames[id], id, imgs[i*PageSize:(i+1)*PageSize]); err != nil {
			return err
		}
	}
	for i, id := range ids {
		if _, err := p.backend.WriteAt(imgs[i*PageSize:(i+1)*PageSize], int64(id)*PageSize); err != nil {
			return fmt.Errorf("pager: write back page %d: %w", id, err)
		}
		p.verified.clear(id)
	}
	if err := p.backend.Sync(); err != nil {
		return err
	}
	if err := p.writeHeader(numPages, freeHead); err != nil {
		return err
	}
	return p.backend.Sync()
}

// reset empties the log down to a fresh header and syncs it.
func (w *walState) reset() error {
	if err := w.backend.Truncate(walHeaderSize); err != nil {
		return fmt.Errorf("pager: truncate wal: %w", err)
	}
	if err := writeWALHeader(w.backend); err != nil {
		return err
	}
	return w.backend.Sync()
}

// closeWAL is Close's final commit and checkpoint: the page file is
// left carrying the full committed state and the WAL truncated, so the
// database stands alone (and stays readable by a reader's open).
func (p *Pager) closeWAL(w *walState) error {
	if err := p.commitWAL(w); err != nil {
		return err
	}
	return p.checkpointWAL(w, true)
}

// --- recovery ---------------------------------------------------------

// recoverWAL replays the committed records of w into the page file and
// truncates the log. The tail past the last record that validates
// through a commit record is discarded: those writes never reached a
// durable commit, so no acknowledged writer is lost with them.
func (p *Pager) recoverWAL(w *walState) error {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	w.size = walHeaderSize

	empty, err := readWALHeader(w.backend)
	if err != nil {
		return fmt.Errorf("pager: wal %s: %w", w.path, err)
	}
	if empty {
		return w.reset()
	}

	// Apply page frames only when their batch reaches a valid commit
	// record. The torn tail where the walk stops is discarded.
	latest := make(map[PageID]walFrame)
	pending := make(map[PageID]walFrame)
	var lastGen uint64
	var lastNumPages uint32
	var lastFreeHead PageID
	committed := false
	walkRecords(w.backend, walHeaderSize, true, func(off int64, kind byte, gen uint64, ref uint32, payload []byte) {
		if kind == frameKindPage {
			pending[PageID(ref)] = walFrame{gen: gen, off: off}
			return
		}
		for id, f := range pending {
			latest[id] = f
		}
		clear(pending)
		lastGen = gen
		lastNumPages, lastFreeHead = commitState(payload)
		committed = true
	})

	if committed {
		for id := range latest {
			if uint32(id) >= lastNumPages {
				return fmt.Errorf("pager: wal %s: %w: committed frame for page %d beyond page count %d",
					w.path, ErrChecksum, id, lastNumPages)
			}
		}
		p.hmu.Lock()
		p.numPages.Store(lastNumPages)
		p.freeHead = lastFreeHead
		if lastGen > p.gen {
			p.gen = lastGen
		}
		p.hmu.Unlock()
		// A crash mid-replay just recovers again.
		if err := p.writeBack(w, latest, lastNumPages, lastFreeHead); err != nil {
			return err
		}
	}
	// Drop the replayed (and any torn) records.
	return w.reset()
}

// walkRecords reads the log at r from off on, one record after another,
// and hands fn each record that reads whole with a valid CRC and — with
// batches set, when off starts a batch — makes sense as the next record
// of its batch (checkRecord). It returns the offset of the first record
// that does not, and why: recovery stops there, and InspectWAL
// resynchronizes past it.
func walkRecords(r io.ReaderAt, off int64, batches bool, fn func(off int64, kind byte, gen uint64, ref uint32, payload []byte)) (int64, error) {
	var pending uint32 // page records since the last commit record
	for {
		kind, gen, ref, payload, err := readFrameAt(r, off)
		if err == nil && batches {
			err = checkRecord(kind, ref, payload, pending)
		}
		if err != nil {
			return off, err
		}
		fn(off, kind, gen, ref, payload)
		pending++
		if kind == frameKindCommit {
			pending = 0
		}
		off += frameSize(len(payload))
	}
}

// --- inspection -------------------------------------------------------

// WALReport summarizes a read-only scan of a write-ahead log.
type WALReport struct {
	Empty         bool   // no records (fresh or fully checkpointed)
	Records       int    // records whose CRC validated
	Commits       int    // commit records among them
	LastGen       uint64 // generation of the last valid commit record
	LastCommit    int64  // byte offset just past the last valid commit record
	TornTail      bool   // invalid bytes after the last commit point (tolerated: discarded by recovery)
	TornAt        int64  // offset of the first invalid byte region, when TornTail or CorruptBefore
	CorruptBefore bool   // a corrupt record precedes a later valid commit record: committed data is damaged
	Problems      []string
}

// OK reports whether the log would recover without losing committed
// data: either wholly valid, or torn only after the last commit point.
func (r *WALReport) OK() bool { return !r.CorruptBefore }

// InspectWAL scans a write-ahead log without mutating it, validating
// every record CRC. Unlike recovery — which stops at the first invalid
// record — it resynchronizes on the frame magic past corrupt regions,
// so a valid commit record *after* a corrupt one is detected and
// reported as CorruptBefore: recovery would silently truncate data
// that a writer was told is durable.
func InspectWAL(r io.ReaderAt) (*WALReport, error) {
	empty, err := readWALHeader(r)
	if err != nil {
		return nil, fmt.Errorf("pager: wal: %w", err)
	}
	rep := &WALReport{Empty: empty}
	if empty {
		return rep, nil
	}

	off := int64(walHeaderSize)
	sawAny := false
	torn := int64(-1)
	for {
		// Past a tear the batch a record belongs to is unknown, and
		// recovery has stopped anyway: any commit there counts.
		end, err := walkRecords(r, off, torn < 0, func(off int64, kind byte, gen uint64, _ uint32, payload []byte) {
			sawAny = true
			rep.Records++
			if kind == frameKindCommit {
				rep.Commits++
				rep.LastGen = gen
				rep.LastCommit = off + frameSize(len(payload))
				if torn >= 0 && torn < off {
					rep.CorruptBefore = true
				}
			}
		})
		if (err == io.EOF || err == io.ErrUnexpectedEOF) && torn < 0 && !frameStartsAt(r, end) {
			break // a clean end of log: no partial record bytes
		}
		if torn < 0 {
			torn = end
			rep.Problems = append(rep.Problems, fmt.Sprintf("invalid record at byte %d: %v", end, err))
		}
		// Resynchronize: hunt for the next frame magic.
		next, ok := nextFrameMagic(r, end+1)
		if !ok {
			break
		}
		off = next
	}
	if torn >= 0 {
		rep.TornAt = torn
		if !rep.CorruptBefore {
			rep.TornTail = true
		}
	}
	rep.Empty = !sawAny && torn < 0
	return rep, nil
}

// frameStartsAt reports whether any bytes exist at off — used to
// distinguish a clean end of log from a partial trailing record.
func frameStartsAt(r io.ReaderAt, off int64) bool {
	var b [1]byte
	n, _ := r.ReadAt(b[:], off)
	return n > 0
}

// nextFrameMagic scans forward from off for the little-endian frame
// magic, returning the offset of its first byte.
func nextFrameMagic(r io.ReaderAt, off int64) (int64, bool) {
	var buf [4096]byte
	var carry [3]byte
	carryLen := 0
	for {
		n, err := r.ReadAt(buf[:], off)
		if n == 0 {
			return 0, false
		}
		// Check the boundary spanning the previous block.
		window := append(append([]byte(nil), carry[:carryLen]...), buf[:n]...)
		for i := 0; i+4 <= len(window); i++ {
			if binary.LittleEndian.Uint32(window[i:]) == frameMagic {
				return off - int64(carryLen) + int64(i), true
			}
		}
		if err != nil {
			return 0, false
		}
		carryLen = copy(carry[:], window[len(window)-3:])
		off += int64(n)
	}
}

// InspectWALFile is InspectWAL over the sidecar file at path. A
// missing file reports an empty log.
func InspectWALFile(path string) (*WALReport, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &WALReport{Empty: true}, nil
		}
		return nil, err
	}
	defer f.Close()
	return InspectWAL(f)
}
