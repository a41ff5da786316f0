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
// An Arena is deliberately not goroutine-safe. Ownership follows the
// sharded runner's single-writer discipline: each arena belongs to
// exactly one shard context (or one engine) and is only touched by
// events executing there. One client's values migrate between owners:
// a packet handed off across shards retires into the arena of the shard
// it was delivered on. Arenas only ever grow, so that drift is harmless
// where traffic crosses a cut both ways; a value that only ever flows
// one way must not be pooled like this — the taker backs new chunks for
// ever and the returner's free list grows to match.
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
// an arena of the same T (not necessarily this one — see the package
// comment on ownership drift) and must not be used afterwards. Zeroing
// here drops any pointers the value carried, so retired values never
// retain payloads.
func (a *Arena[T]) Put(p *T) {
	var zero T
	*p = zero
	a.free = append(a.free, p)
}
