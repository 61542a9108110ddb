package memsim

import (
	"fmt"
	"sync/atomic"
)

// Counter accumulates the data-movement and arithmetic counts of one kernel
// execution. All counts are in float32 elements (I/O) or floating-point
// operations (Flops). Methods are safe for concurrent use so parallel
// dataflow blocks can share one counter.
type Counter struct {
	globalLoads  atomic.Int64
	globalStores atomic.Int64
	sharedLoads  atomic.Int64
	sharedStores atomic.Int64
	flops        atomic.Int64
}

// AddGlobalLoads records n floats read from off-chip memory.
func (c *Counter) AddGlobalLoads(n int) { c.globalLoads.Add(int64(n)) }

// AddGlobalStores records n floats written to off-chip memory.
func (c *Counter) AddGlobalStores(n int) { c.globalStores.Add(int64(n)) }

// AddSharedLoads records n floats read from on-chip shared memory.
func (c *Counter) AddSharedLoads(n int) { c.sharedLoads.Add(int64(n)) }

// AddSharedStores records n floats written to on-chip shared memory.
func (c *Counter) AddSharedStores(n int) { c.sharedStores.Add(int64(n)) }

// AddFlops records n floating-point operations.
func (c *Counter) AddFlops(n int) { c.flops.Add(int64(n)) }

// GlobalLoads returns the off-chip floats read.
func (c *Counter) GlobalLoads() int64 { return c.globalLoads.Load() }

// GlobalStores returns the off-chip floats written.
func (c *Counter) GlobalStores() int64 { return c.globalStores.Load() }

// SharedLoads returns the on-chip floats read.
func (c *Counter) SharedLoads() int64 { return c.sharedLoads.Load() }

// SharedStores returns the on-chip floats written.
func (c *Counter) SharedStores() int64 { return c.sharedStores.Load() }

// GlobalIO returns the total off-chip traffic in floats — the quantity Q
// that the paper's lower bounds constrain.
func (c *Counter) GlobalIO() int64 { return c.globalLoads.Load() + c.globalStores.Load() }

// SharedIO returns the total on-chip traffic in floats.
func (c *Counter) SharedIO() int64 { return c.sharedLoads.Load() + c.sharedStores.Load() }

// Flops returns the recorded floating-point operations.
func (c *Counter) Flops() int64 { return c.flops.Load() }

// Snapshot returns a plain-value copy of the counts.
func (c *Counter) Snapshot() Counts {
	return Counts{
		GlobalLoads:  c.globalLoads.Load(),
		GlobalStores: c.globalStores.Load(),
		SharedLoads:  c.sharedLoads.Load(),
		SharedStores: c.sharedStores.Load(),
		Flops:        c.flops.Load(),
	}
}

// Counts is an immutable snapshot of a Counter.
type Counts struct {
	GlobalLoads  int64
	GlobalStores int64
	SharedLoads  int64
	SharedStores int64
	Flops        int64
}

// GlobalIO is loads plus stores to off-chip memory, in floats.
func (c Counts) GlobalIO() int64 { return c.GlobalLoads + c.GlobalStores }

// SharedIO is loads plus stores to on-chip memory, in floats.
func (c Counts) SharedIO() int64 { return c.SharedLoads + c.SharedStores }

func (c Counts) String() string {
	return fmt.Sprintf("gld=%d gst=%d sld=%d sst=%d flops=%d",
		c.GlobalLoads, c.GlobalStores, c.SharedLoads, c.SharedStores, c.Flops)
}

// Block models one thread block's shared memory: a bounded scratch buffer
// whose fills and drains are counted against a Counter. It is the only
// sanctioned way for dataflow implementations to stage off-chip data, which
// is what makes the I/O accounting faithful.
type Block struct {
	counter  *Counter
	capacity int
	used     int
	buf      []float32
}

// NewBlock allocates a shared-memory block of the given capacity (floats)
// charging I/O to counter. It panics if capacity is not positive.
func NewBlock(counter *Counter, capacity int) *Block {
	if capacity < 1 {
		panic(fmt.Sprintf("memsim: block capacity %d < 1", capacity))
	}
	return &Block{counter: counter, capacity: capacity, buf: make([]float32, capacity)}
}

// Counter returns the counter this block charges its traffic to, so kernels
// can record bulk counts alongside staged copies.
func (b *Block) Counter() *Counter { return b.counter }

// Used returns how many floats are currently allocated.
func (b *Block) Used() int { return b.used }

// Alloc reserves n floats of the block's shared memory and returns the
// buffer. It panics if the block would overflow — exactly the failure a real
// kernel would hit when its tiles exceed the configured Sb.
func (b *Block) Alloc(n int) []float32 {
	if n < 0 || b.used+n > b.capacity {
		panic(fmt.Sprintf("memsim: shared memory overflow: %d + %d > %d", b.used, n, b.capacity))
	}
	buf := b.buf[b.used : b.used+n : b.used+n]
	b.used += n
	return buf
}

// Reset releases all allocations (the next kernel stage reuses the memory).
// Counted traffic is unaffected.
func (b *Block) Reset() { b.used = 0 }

// Reinit re-purposes a block for a new kernel execution: it releases all
// allocations, points the block at a (possibly different) counter and
// adjusts its capacity, growing the backing buffer only when the new
// capacity exceeds it. It exists so kernel scratch pools can recycle blocks
// across launches without reallocating their shared-memory buffers.
func (b *Block) Reinit(counter *Counter, capacity int) {
	if capacity < 1 {
		panic(fmt.Sprintf("memsim: block capacity %d < 1", capacity))
	}
	b.counter = counter
	b.capacity = capacity
	b.used = 0
	if cap(b.buf) < capacity {
		b.buf = make([]float32, capacity)
	} else {
		b.buf = b.buf[:capacity]
	}
}

// LoadGlobal copies src (off-chip) into dst (which must be shared memory
// obtained from Alloc) and counts the traffic: a global load and a shared
// store per element.
func (b *Block) LoadGlobal(dst, src []float32) {
	if len(dst) < len(src) {
		panic("memsim: LoadGlobal destination too small")
	}
	copy(dst, src)
	b.counter.AddGlobalLoads(len(src))
	b.counter.AddSharedStores(len(src))
}

// LoadGlobalStrided gathers count elements from src starting at off with the
// given stride into dst, counting global loads. It models strided/sliced
// tile loads.
func (b *Block) LoadGlobalStrided(dst, src []float32, off, stride, count int) {
	if len(dst) < count {
		panic("memsim: LoadGlobalStrided destination too small")
	}
	for i := 0; i < count; i++ {
		dst[i] = src[off+i*stride]
	}
	b.counter.AddGlobalLoads(count)
	b.counter.AddSharedStores(count)
}

// StoreGlobal copies src (shared) to dst (off-chip) and counts the traffic:
// a shared load and a global store per element.
func (b *Block) StoreGlobal(dst, src []float32) {
	if len(dst) < len(src) {
		panic("memsim: StoreGlobal destination too small")
	}
	copy(dst, src)
	b.counter.AddGlobalStores(len(src))
	b.counter.AddSharedLoads(len(src))
}
