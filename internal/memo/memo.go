// Package memo is the serving tier's one memoizing cache: compute a value
// once per key, hand it to every concurrent requester of that key, and
// remember it under a byte budget. The ordering service keys it by content
// address (orderings and components analyses share one budget); the routing
// proxy keys it by the exact request bytes (coalescing plus the hot cache).
//
// A Cache holds a least-recently-used store and an in-flight call table
// under one mutex, so every request is exactly one of a hit, a miss (it
// starts the computation) or a dedup (it joins the computation in flight),
// and the counters of the three partition the admissions.
package memo

import (
	"container/list"
	"context"
	"sync"
)

// Status reports how Do served a key.
type Status uint8

const (
	// Miss: the caller started the computation.
	Miss Status = iota
	// Hit: the value came from the store.
	Hit
	// Dedup: the caller joined the computation already in flight.
	Dedup
)

// Uncacheable is the size to pass to Call.Finish for a value that is
// replayed to the call's waiters but never stored.
const Uncacheable int64 = -1

// Stats is a snapshot of a Cache's counters and occupancy.
type Stats struct {
	// Hits, Misses and Dedups partition the admissions; Evictions counts
	// entries dropped by the byte budget.
	Hits, Misses, Dedups, Evictions uint64
	// Inflight is the number of keys computing; Entries and Bytes the
	// store's occupancy against Capacity.
	Inflight, Entries int
	Bytes, Capacity   int64
}

// Cache memoizes one computation per key. Create it with New; all methods
// are goroutine-safe.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // of *entry[V]; front = most recently used
	items    map[string]*list.Element
	calls    map[string]*Call[V]
	closeErr error

	hits, misses, dedups, evictions uint64
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// Call is one in-flight computation. The miss that started it must finish
// it with Finish; every Do that joined it waits for that.
type Call[V any] struct {
	c    *Cache[V]
	key  string
	done chan struct{}
	val  V
	err  error
}

// New returns a Cache that stores values under a budget of capacity bytes.
// A capacity ≤ 0 stores nothing but still coalesces concurrent calls.
func New[V any](capacity int64) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		calls:    make(map[string]*Call[V]),
	}
}

// Do serves key from the store (Hit), by joining the call in flight for it
// (Dedup), or by starting a new call (Miss). On a miss Do calls start on
// its own goroutine, and start must make sure the call is finished exactly
// once: before it returns, or later on another goroutine. ctx bounds only
// this caller's wait, never the computation, which other callers may share.
// After Close, Do returns the close error.
func (c *Cache[V]) Do(ctx context.Context, key string, start func(*Call[V])) (V, Status, error) {
	c.mu.Lock()
	if err := c.closeErr; err != nil {
		c.mu.Unlock()
		var zero V
		return zero, Miss, err
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	call, st := c.calls[key], Dedup
	if call == nil {
		call, st = &Call[V]{c: c, key: key, done: make(chan struct{})}, Miss
		c.calls[key] = call
		c.misses++
	} else {
		c.dedups++
	}
	c.mu.Unlock()

	if st == Miss {
		start(call)
	}
	select {
	case <-call.done:
	default:
		select {
		case <-call.done:
		case <-ctx.Done():
			var zero V
			return zero, st, ctx.Err()
		}
	}
	return call.val, st, call.err
}

// Finish resolves the call: every waiter receives (v, err) and the key
// leaves the in-flight table. v is stored when err is nil and size fits a
// positive budget (0 ≤ size ≤ capacity), after which the least recently used
// entries are evicted until the budget holds again. An entry larger than
// the whole budget is not stored: evicting everything for it would only
// thrash. Only the first Finish of a call counts; a call Close already
// failed ignores it.
func (call *Call[V]) Finish(v V, size int64, err error) {
	c := call.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls[call.key] != call {
		return
	}
	delete(c.calls, call.key)
	call.val, call.err = v, err
	close(call.done)
	if err != nil || c.capacity <= 0 || size < 0 || size > c.capacity {
		return
	}
	c.items[call.key] = c.ll.PushFront(&entry[V]{key: call.key, val: v, size: size})
	c.bytes += size
	for c.bytes > c.capacity {
		oldest := c.ll.Remove(c.ll.Back()).(*entry[V])
		delete(c.items, oldest.key)
		c.bytes -= oldest.size
		c.evictions++
	}
}

// Close fails every call in flight with err and makes every later Do
// return err. Values already delivered and stored are unaffected.
func (c *Cache[V]) Close(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeErr = err
	//lint:ignore mapiter shutdown: every call fails with the same error and the table is emptied, so the order is unobservable
	for key, call := range c.calls {
		delete(c.calls, key)
		call.err = err
		close(call.done)
	}
}

// Stats snapshots the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Dedups:    c.dedups,
		Evictions: c.evictions,
		Inflight:  len(c.calls),
		Entries:   len(c.items),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
