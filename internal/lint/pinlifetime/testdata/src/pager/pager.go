// Package pager is a minimal stand-in for repro/internal/pager: the
// pinlifetime analyzer matches types structurally (package base name
// "pager", type names Pager/View/Reader/Page, method names Pin/
// BeginRead/Fetch/Unpin/End/Data/Page), so fixtures exercise exactly
// the matching used on the real tree.
package pager

type PageID uint32

const PageSize = 4096

type Page struct {
	ID   PageID
	Data [PageSize]byte
}

type View struct{ data []byte }

func (v *View) ID() PageID   { return 0 }
func (v *View) Data() []byte { return v.data }
func (v *View) Unpin()       {}

type Reader struct{ data []byte }

func (r *Reader) Page(id PageID) ([]byte, error) { return r.data, nil }
func (r *Reader) End()                           {}

type Pager struct{}

func (p *Pager) BeginRead() Reader { return Reader{} }

func (p *Pager) Pin(id PageID) (View, error)    { return View{}, nil }
func (p *Pager) Fetch(id PageID) (*Page, error) { return &Page{ID: id}, nil }
func (p *Pager) Unpin(pg *Page)                 {}
