package psql

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// The statement cache maps exact query text to its parsed AST, its
// syntactic analysis and, from the first execution on, the statement
// bound to the catalog (bind.go), so repeated queries skip lexing,
// parsing, conjunct ranking, name resolution and — while nothing a
// price reads has changed — pricing. Everything an entry holds is
// read-only once published: execution never mutates a Query or a
// boundStmt, which is what makes one entry safe to share across
// concurrent Run calls. Entries record which functions the statement
// references; RegisterFunc evicts exactly those entries, so a cached
// plan can never call a stale function implementation.

// DefaultStatementCacheSize is the executor's statement-cache capacity
// when none is configured.
const DefaultStatementCacheSize = 128

// CacheStats reports statement-cache effectiveness counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Entries       int
	Invalidations uint64 // entries evicted by RegisterFunc
}

// stmtEntry is one statement text parsed once: what the cache keeps per
// text, and what stands for a nested mapping inside its parent's entry.
type stmtEntry struct {
	src string
	q   *Query
	an  *analysis
	// sub holds an entry for each nested mapping of q's at-clause.
	sub map[*Query]*stmtEntry
	// bound is the statement as last bound to the catalog, nil until the
	// first planned execution. Executor.run checks it against the
	// catalog on every use and replaces it when it no longer holds.
	bound atomic.Pointer[boundStmt]
}

func newStmtEntry(src string, q *Query, an *analysis) *stmtEntry {
	ent := &stmtEntry{src: src, q: q, an: an}
	if len(an.sub) > 0 {
		ent.sub = make(map[*Query]*stmtEntry, len(an.sub))
		for sq, san := range an.sub {
			ent.sub[sq] = newStmtEntry("", sq, san)
		}
	}
	return ent
}

// stmtCache is a mutex-guarded LRU over parsed statements. Operations
// are O(1) except invalidateFunc, which walks all entries (bounded by
// the capacity, and only on function registration).
type stmtCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List // front = most recently used; values are *stmtEntry
	m             map[string]*list.Element
	hits          uint64
	misses        uint64
	invalidations uint64
}

func newStmtCache(capacity int) *stmtCache {
	if capacity <= 0 {
		capacity = DefaultStatementCacheSize
	}
	return &stmtCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached parse of src, promoting it to most recent.
func (c *stmtCache) get(src string) (*stmtEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[src]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*stmtEntry), true
}

// put inserts a parsed statement, evicting the least recently used
// entry at capacity. A concurrent insert of the same text wins
// whichever lands last; both hold equivalent parses.
func (c *stmtCache) put(ent *stmtEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[ent.src]; ok {
		el.Value = ent
		c.ll.MoveToFront(el)
		return
	}
	c.m[ent.src] = c.ll.PushFront(ent)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*stmtEntry).src)
	}
}

// invalidateFunc evicts every cached statement that calls name.
func (c *stmtCache) invalidateFunc(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*stmtEntry)
		if ent.an.funcs[name] {
			c.ll.Remove(el)
			delete(c.m, ent.src)
			c.invalidations++
		}
		el = next
	}
}

// stats snapshots the counters.
func (c *stmtCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Invalidations: c.invalidations}
}
