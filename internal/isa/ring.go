package isa

// This file provides the plumbing for concurrent stream consumption (the
// core-sharded detail group in power4): bounded single-producer/single-
// consumer rings that carry batches between goroutines, a fixed-size pool
// that recycles batch buffers so a steady-state consumer allocates nothing
// per batch, and the Annotated container that lets successive stages
// attach per-instruction metadata without copying the instructions again.

// Ring is a bounded SPSC queue connecting two goroutines. Send
// blocks while the ring is full (backpressure toward the producer), Recv
// blocks while it is empty. It is implemented over a buffered channel,
// which is exactly a bounded ring with the scheduler providing the
// park/unpark; the capacity is the stage-decoupling depth.
type Ring[T any] struct {
	ch chan T
}

// NewRing returns a ring buffering up to depth items (minimum 1).
func NewRing[T any](depth int) *Ring[T] {
	if depth < 1 {
		depth = 1
	}
	return &Ring[T]{ch: make(chan T, depth)}
}

// Send enqueues v, blocking while the ring is full. Send after Close
// panics (a plumbing bug, not a recoverable condition).
func (r *Ring[T]) Send(v T) { r.ch <- v }

// Recv dequeues the oldest item, blocking while the ring is empty.
// ok is false once the ring is closed and drained.
func (r *Ring[T]) Recv() (T, bool) {
	v, ok := <-r.ch
	return v, ok
}

// TryRecv dequeues the oldest item without blocking. ok is false when
// the ring is momentarily empty (or closed and drained) — a consumer that
// needs the item falls back to a blocking Recv, which distinguishes the
// two. The non-blocking probe lets a multiplexing consumer count how
// often it would have stalled on each upstream ring.
func (r *Ring[T]) TryRecv() (T, bool) {
	var zero T
	select {
	case v, open := <-r.ch:
		if !open {
			return zero, false
		}
		return v, true
	default:
		return zero, false
	}
}

// Close marks the producer side finished; the consumer drains the
// remaining items and then sees ok == false.
func (r *Ring[T]) Close() { close(r.ch) }

// Pool is a fixed-size free list of reusable batch payloads. All items
// are allocated up front; Get blocks until an item is recycled, which
// bounds the consumer's total buffer memory to the pool size. Sized to
// cover every in-flight slot (rings plus one in-hand item per stage), a
// correctly plumbed consumer never blocks in Get for long and never
// allocates after construction.
type Pool[T any] struct {
	ch chan T
}

// NewPool returns a pool pre-filled with size items from alloc.
func NewPool[T any](size int, alloc func() T) *Pool[T] {
	if size < 1 {
		size = 1
	}
	p := &Pool[T]{ch: make(chan T, size)}
	for i := 0; i < size; i++ {
		p.ch <- alloc()
	}
	return p
}

// Get takes an item from the pool, blocking until one is available.
func (p *Pool[T]) Get() T { return <-p.ch }

// Put returns an item to the pool. Putting more items than the pool's
// size is a plumbing bug and panics via the full channel... it cannot
// happen when every Put matches an earlier Get.
func (p *Pool[T]) Put(v T) { p.ch <- v }

// Annotated pairs a copied batch of instructions with one annotation
// value per instruction. Decoupled stages communicate through it: an
// upstream stage appends instructions and fills in what it computed, a
// downstream stage reads both slices in order. Ins and Ann share
// indices; SyncAnn resizes Ann to match Ins.
type Annotated[A any] struct {
	Core int // consuming core, for multi-core stage groups
	Ins  []Instr
	Ann  []A
}

// Reset empties the container for reuse, keeping capacity.
func (a *Annotated[A]) Reset() {
	a.Ins = a.Ins[:0]
	a.Ann = a.Ann[:0]
}

// SyncAnn resizes Ann to len(Ins), growing its backing array only if the
// batch outgrew the original capacity. Annotation values are NOT zeroed:
// the first stage to write them assigns whole values.
func (a *Annotated[A]) SyncAnn() {
	if cap(a.Ann) < len(a.Ins) {
		a.Ann = make([]A, len(a.Ins))
		return
	}
	a.Ann = a.Ann[:len(a.Ins)]
}
