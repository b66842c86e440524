// Package cache is a stub of calliope/internal/cache for pageref
// testdata.
package cache

import "internal/queue"

// Cache is an interval cache of pinned pages.
type Cache struct{}

func (c *Cache) Lookup(name string, block int64) *queue.PageRef    { return nil }
func (c *Cache) Alloc() *queue.PageRef                             { return nil }
func (c *Cache) Reuse() *queue.PageRef                             { return nil }
func (c *Cache) Insert(name string, block int64, r *queue.PageRef) {}
func (c *Cache) Invalidate(name string, block int64)               {}
