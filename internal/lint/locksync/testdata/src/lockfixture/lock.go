// Fixture for the locksync analyzer: backend I/O and blocking channel
// ops under pool/WAL/header mutexes, plus the pager lock hierarchy.
//
// locksync recognizes mutexes by owning-type name + field name
// (Pager.hmu, shard.mu, walState.qmu/imu, Relation.smu, store.mu) and
// backends structurally
// (Sync+WriteAt+Truncate), so this package declares the same shapes
// the real internal/pager has.
package lockfixture

import "sync"

type backend interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
}

type shard struct {
	mu sync.Mutex
}

type walState struct {
	qmu      sync.Mutex
	imu      sync.RWMutex
	commitMu sync.Mutex // designated fsync serializer: I/O under it is the design
	backend  backend
}

type Pager struct {
	hmu     sync.Mutex
	backend backend
}

// store / Relation mirror internal/relation: smu guards the id, index
// and spatial directories, each store.mu guards one store's heap, and
// the two are never held together.
type store struct {
	mu sync.RWMutex
}

type Relation struct {
	smu    sync.RWMutex
	stores []*store
}

// --- clean idioms ------------------------------------------------------

// cleanFlushOutside stages under the lock and writes after release.
func cleanFlushOutside(p *Pager, sh *shard, buf []byte) error {
	sh.mu.Lock()
	data := append([]byte(nil), buf...)
	sh.mu.Unlock()
	_, err := p.backend.WriteAt(data, 0)
	return err
}

// cleanSyncUnderCommitMu: commitMu is the designated fsync serializer,
// not a recognized hot lock; I/O under it is the design.
func cleanSyncUnderCommitMu(w *walState) error {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	return w.backend.Sync()
}

// cleanHeaderWrite: the dual-slot header WriteAt under hmu IS the
// protocol hmu exists for.
func cleanHeaderWrite(p *Pager, buf []byte) error {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	_, err := p.backend.WriteAt(buf, 0)
	return err
}

// cleanOrder takes hmu before shard.mu before qmu.
func cleanOrder(p *Pager, sh *shard, w *walState) {
	p.hmu.Lock()
	sh.mu.Lock()
	w.qmu.Lock()
	w.qmu.Unlock()
	sh.mu.Unlock()
	p.hmu.Unlock()
}

// cleanSelectDefault never blocks: default makes the select a poll.
func cleanSelectDefault(sh *shard, ch chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case v := <-ch:
		_ = v
	default:
	}
}

// cleanGoroutine: the spawned goroutine does not inherit the lock.
func cleanGoroutine(sh *shard, b backend) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	go func() {
		_ = b.Sync()
	}()
}

// cleanBranchScoped: a lock taken in one if-arm does not poison the
// code after the branch.
func cleanBranchScoped(sh *shard, b backend, cond bool) error {
	if cond {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
	return b.Sync()
}

// cleanResolveThenHeap is the read discipline: resolve the id under
// smu, release, then read the heap under the store lock.
func cleanResolveThenHeap(r *Relation, gid int) {
	r.smu.RLock()
	s := gid % len(r.stores)
	r.smu.RUnlock()
	st := r.stores[s]
	st.mu.RLock()
	st.mu.RUnlock()
}

// cleanHeapThenPublish is the insert discipline: the heap write and
// the id's publication are separate critical sections.
func cleanHeapThenPublish(r *Relation, st *store) {
	st.mu.Lock()
	st.mu.Unlock()
	r.smu.Lock()
	r.smu.Unlock()
}

// --- violations --------------------------------------------------------

// badSyncUnderShard fsyncs with a pool shard locked.
func badSyncUnderShard(sh *shard, b backend) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return b.Sync() // want `backend Sync while holding pool shard mutex`
}

// badWriteUnderWAL writes with the WAL queue mutex held.
func badWriteUnderWAL(w *walState, buf []byte) error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	_, err := w.backend.WriteAt(buf, 0) // want `backend WriteAt while holding WAL mutex`
	return err
}

// badSyncUnderHeader fsyncs under hmu: WriteAt is exempt there, Sync
// is not (writeHeader leaves fsync ordering to callers).
func badSyncUnderHeader(p *Pager) error {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	return p.backend.Sync() // want `backend Sync while holding header mutex`
}

// badTruncateUnderImu truncates under the frame-index mutex.
func badTruncateUnderImu(w *walState) error {
	w.imu.Lock()
	defer w.imu.Unlock()
	return w.backend.Truncate(0) // want `backend Truncate while holding WAL mutex`
}

// badSendUnderShard blocks on a channel send with a shard locked.
func badSendUnderShard(sh *shard, ch chan int) {
	sh.mu.Lock()
	ch <- 1 // want `blocking channel send while holding pool shard mutex`
	sh.mu.Unlock()
}

// badRecvUnderWAL blocks on a receive with qmu held.
func badRecvUnderWAL(w *walState, ch chan int) int {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return <-ch // want `blocking channel receive while holding WAL mutex`
}

// badSelectUnderShard: no default, so the select blocks.
func badSelectUnderShard(sh *shard, a, b chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select { // want `blocking select without default while holding pool shard mutex`
	case <-a:
	case <-b:
	}
}

// badRangeUnderShard: ranging over a channel is a receive per loop.
func badRangeUnderShard(sh *shard, ch chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for v := range ch { // want `blocking range over channel while holding pool shard mutex`
		_ = v
	}
}

// badOrderHmuUnderShard acquires hmu with a shard already locked.
func badOrderHmuUnderShard(p *Pager, sh *shard) {
	sh.mu.Lock()
	p.hmu.Lock() // want `lock order violation: acquiring header mutex`
	p.hmu.Unlock()
	sh.mu.Unlock()
}

// badOrderShardUnderWAL acquires a pager mutex with qmu held.
func badOrderShardUnderWAL(sh *shard, w *walState) {
	w.qmu.Lock()
	sh.mu.Lock() // want `lock order violation: acquiring pager mutex`
	sh.mu.Unlock()
	w.qmu.Unlock()
}

// badHeapUnderDir takes a store heap lock with the directory still
// locked.
func badHeapUnderDir(r *Relation, st *store) {
	r.smu.RLock()
	st.mu.RLock() // want `lock order violation: acquiring store heap mutex`
	st.mu.RUnlock()
	r.smu.RUnlock()
}

// badDirUnderHeap publishes an id without releasing the heap lock.
func badDirUnderHeap(r *Relation, st *store) {
	st.mu.Lock()
	r.smu.Lock() // want `lock order violation: acquiring relation directory mutex`
	r.smu.Unlock()
	st.mu.Unlock()
}

// badSyncUnderDir fsyncs with the directory locked.
func badSyncUnderDir(r *Relation, b backend) error {
	r.smu.Lock()
	defer r.smu.Unlock()
	return b.Sync() // want `backend Sync while holding relation directory mutex`
}

// badSendUnderStoreHeap blocks on a channel send with a store heap
// locked (the repacker handshake must happen outside it).
func badSendUnderStoreHeap(st *store, ch chan int) {
	st.mu.Lock()
	ch <- 1 // want `blocking channel send while holding store heap mutex`
	st.mu.Unlock()
}

// releasedBeforeIO unlocks first: no violation.
func releasedBeforeIO(sh *shard, b backend) error {
	sh.mu.Lock()
	sh.mu.Unlock()
	return b.Sync()
}

// suppressedSync demonstrates the directive escape hatch.
func suppressedSync(sh *shard, b backend) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	//lint:ignore locksync fixture: single-writer bootstrap path, no readers exist yet
	return b.Sync()
}
