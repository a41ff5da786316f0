// Package arena provides chunked, owner-local allocators for the
// high-churn value types on the simulation hot path (netem in-flight
// packets, the scheduler's timer bodies).
//
// An Arena[T] hands out stable pointers into fixed-size chunks it
// allocates as needed, and recycles freed values through a LIFO free
// list. Compared to allocating each value individually on the Go heap:
//
//   - values of one arena pack into contiguous chunks, so an owner's
//     working set (one shard's in-flight packets, one engine's timer
//     bodies) stays on its own cache lines instead of being interleaved
//     with every other allocation of the process;
//   - the LIFO free list re-issues the most recently retired value
//     first — the one still warm in cache;
//   - steady-state churn performs zero heap allocations and produces
//     zero garbage: chunks are retained for the arena's lifetime.
//
// An Arena is deliberately not goroutine-safe. Memory is shard-private:
// each arena belongs to exactly one shard context (or one engine), is
// only touched by events executing there, and takes back only the
// values it issued. A value that must cross to another owner is copied
// into one of the new owner's values, and the original goes back where
// it came from (netem does this for a packet handed off across shards).
//
// The zero Arena is ready to use.
package arena

// chunkSize is the number of T values per chunk. 256 keeps chunks
// within a few pages for the hot-path structs (tens of bytes each)
// while amortizing the per-chunk allocation to irrelevance.
const chunkSize = 256

// Arena is a chunked allocator with a free list. The zero value is an
// empty arena ready for Get.
type Arena[T any] struct {
	free []*T // retired values, reused LIFO
	cur  []T  // newest chunk, issued front to back
	next int  // next unissued index in cur
}

// Get returns a zeroed *T: the most recently freed value if one is
// available, otherwise the next slot of the current chunk (allocating
// a fresh chunk when it is full). The pointer is stable for the
// arena's lifetime.
func (a *Arena[T]) Get() *T {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	if a.next == len(a.cur) {
		a.cur = make([]T, chunkSize)
		a.next = 0
	}
	p := &a.cur[a.next]
	a.next++
	return p
}

// Put zeroes *p and returns it to the free list. p must have come from
// this arena and must not be used afterwards. Zeroing here drops any
// pointers the value carried, so retired values never retain payloads.
func (a *Arena[T]) Put(p *T) {
	var zero T
	*p = zero
	a.free = append(a.free, p)
}
