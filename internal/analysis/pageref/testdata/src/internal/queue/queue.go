// Package queue is a stub of calliope/internal/queue for pageref
// testdata: just enough surface for the analyzer's type checks.
package queue

// PageRef is a refcounted page handle.
type PageRef struct{ refs int }

func (r *PageRef) Bytes() []byte { return nil }
func (r *PageRef) Refs() int     { return r.refs }
func (r *PageRef) Retain()       { r.refs++ }
func (r *PageRef) Release()      { r.refs-- }

// PagePool hands out pinned pages.
type PagePool struct{}

func NewPagePool(pageSize, pages int) (*PagePool, error) { return &PagePool{}, nil }

func (p *PagePool) Get(cancel <-chan struct{}) *PageRef { return &PageRef{refs: 1} }
func (p *PagePool) TryGet() *PageRef                    { return &PageRef{refs: 1} }
func (p *PagePool) TryReuse() *PageRef                  { return &PageRef{refs: 1} }
