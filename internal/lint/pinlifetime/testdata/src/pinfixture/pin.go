// Fixture for the pinlifetime analyzer: every // want comment marks a
// diagnostic the analyzer must produce; clean functions document the
// sanctioned idioms.
package pinfixture

import (
	"errors"

	"pager"
)

var errBoom = errors.New("boom")

// --- clean idioms ------------------------------------------------------

// cleanDefer releases through defer: every path is covered.
func cleanDefer(p *pager.Pager) error {
	v, err := p.Pin(1)
	if err != nil {
		return err
	}
	defer v.Unpin()
	if len(v.Data()) == 0 {
		return errBoom
	}
	return nil
}

// cleanExplicit unpins on each path by hand.
func cleanExplicit(p *pager.Pager) (int, error) {
	v, err := p.Pin(1)
	if err != nil {
		return 0, err
	}
	n := len(v.Data())
	if n == 0 {
		v.Unpin()
		return 0, errBoom
	}
	v.Unpin()
	return n, nil
}

// cleanLoop pins and releases once per iteration.
func cleanLoop(p *pager.Pager, ids []pager.PageID) int {
	total := 0
	for _, id := range ids {
		v, err := p.Pin(id)
		if err != nil {
			continue
		}
		total += len(v.Data())
		v.Unpin()
	}
	return total
}

// cleanFetch releases a fetched page through Pager.Unpin.
func cleanFetch(p *pager.Pager) error {
	pg, err := p.Fetch(2)
	if err != nil {
		return err
	}
	use(pg.Data[:])
	p.Unpin(pg)
	return nil
}

// cleanHandoff returns the page: ownership transfers to the caller.
func cleanHandoff(p *pager.Pager) (*pager.Page, error) {
	pg, err := p.Fetch(2)
	if err != nil {
		return nil, err
	}
	return pg, nil
}

// cleanDeferClosure releases via a deferred closure.
func cleanDeferClosure(p *pager.Pager) error {
	v, err := p.Pin(1)
	if err != nil {
		return err
	}
	defer func() { v.Unpin() }()
	return validate(v.Data())
}

// cleanErrEqNil uses the inverted guard.
func cleanErrEqNil(p *pager.Pager) int {
	v, err := p.Pin(1)
	if err == nil {
		n := len(v.Data())
		v.Unpin()
		return n
	}
	return 0
}

// cleanPanicPath may panic while pinned: unwinding is the crash path,
// not a leak.
func cleanPanicPath(p *pager.Pager) {
	v, err := p.Pin(1)
	if err != nil {
		panic(err)
	}
	if len(v.Data()) == 0 {
		panic("empty page")
	}
	v.Unpin()
}

// cleanPerShard mirrors the sharded verification fan-out: one pager per
// shard file, each shard's pin released before the next shard's is
// taken.
func cleanPerShard(shards []*pager.Pager) int {
	total := 0
	for _, p := range shards {
		v, err := p.Pin(1)
		if err != nil {
			continue
		}
		total += len(v.Data())
		v.Unpin()
	}
	return total
}

// cleanPerShardWorker: a pin acquired inside a per-shard closure is the
// closure's own obligation, released before it returns.
func cleanPerShardWorker(shards []*pager.Pager) {
	for _, p := range shards {
		p := p
		func() {
			v, err := p.Pin(1)
			if err != nil {
				return
			}
			defer v.Unpin()
			use(v.Data())
		}()
	}
}

// cleanReader is the batch idiom: one reader for the whole walk, ended
// by defer, each page's bytes used before the next is asked for.
func cleanReader(p *pager.Pager, ids []pager.PageID) (int, error) {
	r := p.BeginRead()
	defer r.End()
	total := 0
	for _, id := range ids {
		b, err := r.Page(id)
		if err != nil {
			return 0, err
		}
		total += len(b)
	}
	return total, nil
}

// cleanReaderLent lends the reader to a helper; the function that began
// the batch still ends it.
func cleanReaderLent(p *pager.Pager) error {
	r := p.BeginRead()
	err := readOne(&r, 1)
	r.End()
	return err
}

func readOne(r *pager.Reader, id pager.PageID) error {
	b, err := r.Page(id)
	if err != nil {
		return err
	}
	return validate(b)
}

// cleanReaderHandoff wraps the reader in a value the caller releases.
type batch struct{ r pager.Reader }

func cleanReaderHandoff(p *pager.Pager) batch {
	r := p.BeginRead()
	return batch{r: r}
}

// --- violations --------------------------------------------------------

// leakReaderOnError ends the batch on the success path only.
func leakReaderOnError(p *pager.Pager) error {
	r := p.BeginRead() // want `BeginRead is not released on a return path ending at pin.go:\d+ \(missing Reader.End on that path\)`
	b, err := r.Page(1)
	if err != nil {
		return err
	}
	use(b)
	r.End()
	return nil
}

// leakReaderLent: lending the reader does not discharge it.
func leakReaderLent(p *pager.Pager) error {
	r := p.BeginRead() // want `BeginRead is not released on a return path ending at pin.go:\d+`
	return readOne(&r, 1)
}

// leakReaderDiscarded begins a batch nobody can end.
func leakReaderDiscarded(p *pager.Pager) {
	p.BeginRead() // want `result of BeginRead discarded`
}

// leakPerShardEarlyBreak leaks the current shard's pin when the scan
// bails out of the fan-out loop early.
func leakPerShardEarlyBreak(shards []*pager.Pager) error {
	for _, p := range shards {
		v, err := p.Pin(1) // want `Pin is not released on a return path ending at pin.go:\d+`
		if err != nil {
			return err
		}
		if len(v.Data()) == 0 {
			return errBoom
		}
		v.Unpin()
	}
	return nil
}

// leakPerShardWorker: the per-shard closure returns without unpinning.
func leakPerShardWorker(shards []*pager.Pager) {
	for _, p := range shards {
		p := p
		func() {
			v, err := p.Pin(1) // want `Pin is not released on the fall-through path ending at pin.go:\d+`
			if err != nil {
				return
			}
			use(v.Data())
		}()
	}
}

// leakOnErrorReturn forgets the view on the validation error path.
func leakOnErrorReturn(p *pager.Pager) error {
	v, err := p.Pin(1) // want `Pin is not released on a return path ending at pin.go:\d+`
	if err != nil {
		return err
	}
	if len(v.Data()) == 0 {
		return errBoom
	}
	v.Unpin()
	return nil
}

// leakFallthrough never unpins at all.
func leakFallthrough(p *pager.Pager) {
	v, err := p.Pin(1) // want `Pin is not released on the fall-through path ending at pin.go:\d+`
	if err != nil {
		return
	}
	use(v.Data())
}

// leakFetch forgets Pager.Unpin on the early return.
func leakFetch(p *pager.Pager) error {
	pg, err := p.Fetch(2) // want `Fetch is not released on a return path ending at pin.go:\d+`
	if err != nil {
		return err
	}
	if pg.ID == 0 {
		return errBoom
	}
	p.Unpin(pg)
	return nil
}

// leakDiscarded throws the view away unreleasably.
func leakDiscarded(p *pager.Pager) {
	_, _ = p.Pin(1) // want `result of Pin discarded`
}

// leakExprStmt calls Pin for effect only.
func leakExprStmt(p *pager.Pager) {
	p.Fetch(3) // want `result of Fetch discarded`
}

// leakStaleErrGuard reuses err for another operation before the guard:
// the branch no longer proves the Pin failed, so the pin leaks there.
func leakStaleErrGuard(p *pager.Pager) error {
	v, err := p.Pin(1) // want `Pin is not released on a return path ending at pin.go:\d+`
	if err != nil {
		return err
	}
	err = validate(nil)
	if err != nil {
		return err
	}
	v.Unpin()
	return nil
}

// suppressed demonstrates the escape hatch: the reason is mandatory.
func suppressed(p *pager.Pager) {
	//lint:ignore pinlifetime fixture: pin intentionally leaked to test the directive
	v, err := p.Pin(1)
	if err != nil {
		return
	}
	use(v.Data())
}

// --- View.Data escapes -------------------------------------------------

// escapeReturnData returns the raw mapped bytes.
func escapeReturnData(p *pager.Pager) []byte {
	v, err := p.Pin(1)
	if err != nil {
		return nil
	}
	d := v.Data()
	v.Unpin()
	return d // want `View.Data bytes escape via return`
}

// escapeFieldData parks view bytes in a struct that outlives the pin.
type holder struct{ b []byte }

func escapeFieldData(p *pager.Pager, h *holder) {
	v, err := p.Pin(1)
	if err != nil {
		return
	}
	h.b = v.Data() // want `View.Data bytes escape into a struct field`
	v.Unpin()
}

// escapeSendData ships the aliasing slice to another goroutine.
func escapeSendData(p *pager.Pager, ch chan []byte) {
	v, err := p.Pin(1)
	if err != nil {
		return
	}
	d := v.Data()
	ch <- d // want `View.Data bytes escape via channel send`
	v.Unpin()
}

// copyData is the sanctioned pattern: copy under the pin.
func copyData(p *pager.Pager) []byte {
	v, err := p.Pin(1)
	if err != nil {
		return nil
	}
	out := append([]byte(nil), v.Data()...)
	v.Unpin()
	return out
}

// --- Reader.Page escapes -----------------------------------------------

// escapeReturnPage returns bytes that die at the deferred End.
func escapeReturnPage(p *pager.Pager) []byte {
	r := p.BeginRead()
	defer r.End()
	b, err := r.Page(1)
	if err != nil {
		return nil
	}
	return b // want `Reader.Page bytes escape via return: the slice dies with the reader's next Page or End`
}

// escapeFieldPage parks a page's bytes past the next Page.
func escapeFieldPage(p *pager.Pager, h *holder) {
	r := p.BeginRead()
	defer r.End()
	b, _ := r.Page(1)
	h.b = b // want `Reader.Page bytes escape into a struct field`
}

// copyPage is the sanctioned pattern: copy before the next Page or End.
func copyPage(p *pager.Pager) []byte {
	r := p.BeginRead()
	defer r.End()
	b, err := r.Page(1)
	if err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func use([]byte)            {}
func validate([]byte) error { return nil }
