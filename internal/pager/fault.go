package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Fault injection for the durability test suite. A FaultBackend wraps
// any Backend and deterministically injects the failure modes real
// disks exhibit: outright I/O errors, short writes, torn pages (only a
// prefix of the buffer reaches the medium while the write "succeeds" —
// the classic power-loss failure), and failing syncs. Trigger points
// are either explicit 1-based operation ordinals or drawn from a
// seeded RNG, so every failing schedule is reproducible from its
// FaultConfig.
//
// A CrashPair captures the page file and its log together at every Sync
// of either — the states a crash could leave behind — and a CrashCluster
// does the same for a database of several files; the crash-point
// harnesses recover each capture and require it clean at a committed
// state.

// ErrInjected is the error returned by injected I/O faults.
var ErrInjected = errors.New("pager: injected I/O fault")

// FaultConfig selects which operations fail. Ordinals are 1-based
// counts of calls to the wrapped backend: FailRead=3 fails the third
// ReadAt. Zero disables a trigger.
type FaultConfig struct {
	// Seed drives the probabilistic triggers; the same seed and call
	// sequence produce the same faults.
	Seed int64
	// FailRead fails the Nth ReadAt with ErrInjected (no bytes read).
	FailRead int
	// FailWrite fails the Nth WriteAt with ErrInjected before any byte
	// is written.
	FailWrite int
	// ShortWrite makes the Nth WriteAt persist only the first half of
	// the buffer and report ErrInjected with the short count.
	ShortWrite int
	// TornWrite makes the Nth WriteAt persist only the first half of
	// the buffer while reporting success — the failure surfaces later,
	// as a checksum mismatch on read.
	TornWrite int
	// FailSync fails the Nth Sync with ErrInjected.
	FailSync int
	// TornWriteProb tears each write with this probability (seeded by
	// Seed), independent of the ordinal triggers.
	TornWriteProb float64

	// Append-region triggers target WAL-style writes — any WriteAt whose
	// offset or length is not page-aligned (log records, unlike page
	// write-back, land at arbitrary byte offsets). Ordinals count only
	// such writes: FailAppend=2 fails the second append-region write.
	//
	// FailAppend fails the Nth append-region write with ErrInjected.
	FailAppend int
	// ShortAppend persists only a prefix of the Nth append-region write
	// and reports ErrInjected with the short count.
	ShortAppend int
	// TornAppend persists only a prefix of the Nth append-region write
	// while reporting success — a power-cut mid-record; the tail is
	// discovered (and truncated) by WAL recovery.
	TornAppend int
	// TornAppendProb tears each append-region write with this
	// probability (seeded by Seed).
	TornAppendProb float64
}

// FaultBackend wraps a Backend with deterministic fault injection.
type FaultBackend struct {
	inner Backend
	cfg   FaultConfig

	mu      sync.Mutex
	rng     *rand.Rand
	reads   int
	writes  int
	appends int
	syncs   int
	// Faults lists the injected faults in order, for test diagnostics.
	faults []string
}

// NewFaultBackend wraps inner with the given fault schedule.
func NewFaultBackend(inner Backend, cfg FaultConfig) *FaultBackend {
	return &FaultBackend{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Faults returns a description of every fault injected so far.
func (f *FaultBackend) Faults() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.faults...)
}

// Ops returns the operation counts seen so far (reads, writes, syncs),
// so tests can size ordinal triggers to a recorded workload.
func (f *FaultBackend) Ops() (reads, writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.writes, f.syncs
}

// AppendOps returns how many append-region (non-page-aligned) writes
// have been seen, for sizing the append-fault ordinals.
func (f *FaultBackend) AppendOps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends
}

func (f *FaultBackend) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.reads++
	fail := f.reads == f.cfg.FailRead
	if fail {
		f.faults = append(f.faults, fmt.Sprintf("read %d@%d: EIO", f.reads, off))
	}
	f.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("read at %d: %w", off, ErrInjected)
	}
	return f.inner.ReadAt(p, off)
}

func (f *FaultBackend) WriteAt(p []byte, off int64) (int, error) {
	// Append-region writes (log records) are unaligned; page write-back
	// is always whole page-multiples at page-multiple offsets.
	appendRegion := off%PageSize != 0 || len(p)%PageSize != 0
	f.mu.Lock()
	f.writes++
	n := f.writes
	torn := n == f.cfg.TornWrite || (f.cfg.TornWriteProb > 0 && f.rng.Float64() < f.cfg.TornWriteProb)
	short := n == f.cfg.ShortWrite
	fail := n == f.cfg.FailWrite
	// keep counts the bytes persisted by a torn/short write: half for
	// the page-aligned triggers (the classic half-page tear), two thirds
	// for append-region triggers so the tear lands mid-record even when
	// a batch ends with a small commit frame.
	keep := len(p) / 2
	if appendRegion {
		f.appends++
		a := f.appends
		if a == f.cfg.FailAppend {
			fail = true
		}
		if a == f.cfg.ShortAppend {
			short = true
		}
		if a == f.cfg.TornAppend || (f.cfg.TornAppendProb > 0 && f.rng.Float64() < f.cfg.TornAppendProb) {
			torn = true
		}
		if fail || short || torn {
			keep = len(p) * 2 / 3
		}
	}
	switch {
	case fail:
		f.faults = append(f.faults, fmt.Sprintf("write %d@%d: EIO", n, off))
	case short:
		f.faults = append(f.faults, fmt.Sprintf("write %d@%d: short", n, off))
	case torn:
		f.faults = append(f.faults, fmt.Sprintf("write %d@%d: torn", n, off))
	}
	f.mu.Unlock()
	switch {
	case fail:
		return 0, fmt.Errorf("write at %d: %w", off, ErrInjected)
	case short:
		wrote, err := f.inner.WriteAt(p[:keep], off)
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("write at %d: wrote %d of %d: %w", off, wrote, len(p), ErrInjected)
	case torn:
		// Persist a prefix only, but report full success: the medium
		// lied, and only checksums can tell.
		if _, err := f.inner.WriteAt(p[:keep], off); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.inner.WriteAt(p, off)
}

func (f *FaultBackend) Truncate(size int64) error { return f.inner.Truncate(size) }

func (f *FaultBackend) Sync() error {
	f.mu.Lock()
	f.syncs++
	fail := f.syncs == f.cfg.FailSync
	if fail {
		f.faults = append(f.faults, fmt.Sprintf("sync %d: EIO", f.syncs))
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("sync: %w", ErrInjected)
	}
	return f.inner.Sync()
}

func (f *FaultBackend) Close() error { return f.inner.Close() }

// CrashImage is one coordinated crash point of a pager: the page file
// and WAL bytes captured at the same instant.
type CrashImage struct {
	Main []byte
	WAL  []byte
}

// CrashPair is the crash-point harness of one pager: two in-memory stores
// (the page file and its WAL sidecar) whose Syncs each capture a
// consistent image of *both* under one mutex — the state a crash at
// that barrier could leave behind. The OnSync hook fires with each
// image's index while the pair's mutex is held, letting tests record
// exactly which commits had been acknowledged when the image was
// taken (e.g. "image 7 was captured after ack #42").
type CrashPair struct {
	mu     sync.Mutex
	main   *MemBackend
	wal    *MemBackend
	images []CrashImage

	// OnSync, when set before any Sync, observes each captured image.
	OnSync func(index int, img CrashImage)
}

// NewCrashPair creates an empty coordinated main+WAL crash harness.
func NewCrashPair() *CrashPair {
	return &CrashPair{main: NewMemBackend(nil), wal: NewMemBackend(nil)}
}

// Main returns the page-file half of the pair.
func (c *CrashPair) Main() Backend { return &crashHalf{c: c, b: c.main} }

// WAL returns the log half of the pair.
func (c *CrashPair) WAL() Backend { return &crashHalf{c: c, b: c.wal} }

// Images returns copies of every coordinated crash image so far.
func (c *CrashPair) Images() []CrashImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CrashImage, len(c.images))
	for i, img := range c.images {
		out[i] = CrashImage{
			Main: append([]byte(nil), img.Main...),
			WAL:  append([]byte(nil), img.WAL...),
		}
	}
	return out
}

func (c *CrashPair) capture() {
	c.mu.Lock()
	img := CrashImage{Main: c.main.Bytes(), WAL: c.wal.Bytes()}
	c.images = append(c.images, img)
	if c.OnSync != nil {
		c.OnSync(len(c.images)-1, img)
	}
	c.mu.Unlock()
}

// crashHalf adapts one MemBackend of a CrashPair, routing Sync through
// the pair-wide capture.
type crashHalf struct {
	c *CrashPair
	b *MemBackend
}

func (h *crashHalf) ReadAt(p []byte, off int64) (int, error)  { return h.b.ReadAt(p, off) }
func (h *crashHalf) WriteAt(p []byte, off int64) (int, error) { return h.b.WriteAt(p, off) }
func (h *crashHalf) Truncate(size int64) error                { return h.b.Truncate(size) }
func (h *crashHalf) Close() error                             { return nil }

func (h *crashHalf) Sync() error {
	h.c.capture()
	return nil
}

// ClusterImage is one coordinated crash point of a multi-file
// database: every member's (page file, WAL) bytes captured at the same
// instant. Member 0 is conventionally the main database file; members
// 1..N are shard files.
type ClusterImage struct {
	Members []CrashImage
}

// CrashCluster generalizes CrashPair to N coordinated (page file, WAL)
// pairs — the harness for sharded databases, where a commit fans out
// over independent per-shard WALs before the main file commits. Any
// member's Sync captures a globally consistent byte image of EVERY
// member under one mutex: exactly the state a crash between two
// shards' commits (or between the shard phase and the main-file
// commit) could leave behind. The OnSync hook fires with each image's
// index while the cluster mutex is held, so tests can record the
// acknowledged-commit floor at each barrier.
type CrashCluster struct {
	mu      sync.Mutex
	members []clusterMember
	images  []ClusterImage

	// OnSync, when set before any Sync, observes each captured image.
	OnSync func(index int, img ClusterImage)
}

type clusterMember struct{ main, wal *MemBackend }

// NewCrashCluster creates a coordinated crash harness of n (main, WAL)
// pairs.
func NewCrashCluster(n int) *CrashCluster {
	c := &CrashCluster{members: make([]clusterMember, n)}
	for i := range c.members {
		c.members[i] = clusterMember{main: NewMemBackend(nil), wal: NewMemBackend(nil)}
	}
	return c
}

// Members returns the number of coordinated pairs.
func (c *CrashCluster) Members() int { return len(c.members) }

// Main returns the page-file half of member i.
func (c *CrashCluster) Main(i int) Backend { return &clusterHalf{c: c, b: c.members[i].main} }

// WAL returns the log half of member i.
func (c *CrashCluster) WAL(i int) Backend { return &clusterHalf{c: c, b: c.members[i].wal} }

// Images returns copies of every coordinated crash image so far.
func (c *CrashCluster) Images() []ClusterImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ClusterImage, len(c.images))
	for i, img := range c.images {
		cp := ClusterImage{Members: make([]CrashImage, len(img.Members))}
		for m, mi := range img.Members {
			cp.Members[m] = CrashImage{
				Main: append([]byte(nil), mi.Main...),
				WAL:  append([]byte(nil), mi.WAL...),
			}
		}
		out[i] = cp
	}
	return out
}

func (c *CrashCluster) capture() {
	c.mu.Lock()
	img := ClusterImage{Members: make([]CrashImage, len(c.members))}
	for i, m := range c.members {
		img.Members[i] = CrashImage{Main: m.main.Bytes(), WAL: m.wal.Bytes()}
	}
	c.images = append(c.images, img)
	if c.OnSync != nil {
		c.OnSync(len(c.images)-1, img)
	}
	c.mu.Unlock()
}

// clusterHalf adapts one MemBackend of a CrashCluster, routing Sync
// through the cluster-wide capture.
type clusterHalf struct {
	c *CrashCluster
	b *MemBackend
}

func (h *clusterHalf) ReadAt(p []byte, off int64) (int, error)  { return h.b.ReadAt(p, off) }
func (h *clusterHalf) WriteAt(p []byte, off int64) (int, error) { return h.b.WriteAt(p, off) }
func (h *clusterHalf) Truncate(size int64) error                { return h.b.Truncate(size) }
func (h *clusterHalf) Close() error                             { return nil }

func (h *clusterHalf) Sync() error {
	h.c.capture()
	return nil
}
