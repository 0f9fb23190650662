// Package recycle keeps the large arrays of finished machines for the next
// machine to reuse. A security evaluation builds thousands of machines that
// each live for a few thousand simulated cycles; without reuse, their ROBs,
// TSH rings, predictor tables, cache line chunks and page frames are most of
// what the collector has to trace and free.
//
// Storage comes back exactly as the allocator would hand it out: Free zeroes
// it before keeping it, so a recycled array cannot be told from a new one,
// and a constructor needs no second path for it. Free must be called only
// by the last holder of the storage.
package recycle

import "sync"

// Slices is a free list of []T, kept per length. The zero value is ready to
// use and safe for concurrent use.
type Slices[T any] struct {
	byLen sync.Map // int -> *sync.Pool of zeroed []T
}

// Make returns a zeroed slice of length and capacity n: what make([]T, n)
// returns, taken from a freed slice of that length when one is kept.
func (s *Slices[T]) Make(n int) []T {
	if p, ok := s.byLen.Load(n); ok {
		if b, ok := p.(*sync.Pool).Get().([]T); ok {
			return b
		}
	}
	return make([]T, n)
}

// Free zeroes b up to its capacity and keeps it for a later Make of that
// length. A nil or empty b is ignored.
func (s *Slices[T]) Free(b []T) {
	b = b[:cap(b)]
	if len(b) == 0 {
		return
	}
	clear(b)
	p, ok := s.byLen.Load(len(b))
	if !ok {
		p, _ = s.byLen.LoadOrStore(len(b), new(sync.Pool))
	}
	p.(*sync.Pool).Put(b)
}

// Objects is a free list of *T. The zero value is ready to use and safe for
// concurrent use.
type Objects[T any] struct {
	pool sync.Pool // of zeroed *T
}

// New returns a pointer to a zeroed T: what new(T) returns, taken from a
// freed one when one is kept.
func (o *Objects[T]) New() *T {
	if p, ok := o.pool.Get().(*T); ok {
		return p
	}
	return new(T)
}

// Free zeroes *p and keeps p for a later New.
func (o *Objects[T]) Free(p *T) {
	var zero T
	*p = zero
	o.pool.Put(p)
}
