// Package heap implements the mthree runtime heap: a two-semispace,
// word-addressed object space with descriptor-carrying headers.
//
// Object layout (word offsets from the object's tidy address):
//
//	records / fixed arrays: [header][payload ...]
//	open arrays:            [header][length][elements ...]
//
// The header of a live object holds its descriptor ID (>= 0). During a
// collection, a copied object's old header is overwritten with the
// forwarding word -(newAddr+1) (< 0), which is how the collector
// recognizes already-moved objects.
package heap

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/types"
)

// Heap manages the heap region [Lo, Hi) of the machine's memory.
type Heap struct {
	Mem   []int64
	Lo    int64
	Hi    int64
	Descs *types.DescTable

	semi   int64 // words per semispace
	quota  int64 // usable words per semispace (== semi when uncapped)
	FromLo int64 // current allocation space base
	ToLo   int64 // copy space base
	Alloc  int64 // bump pointer
	Limit  int64

	// toDirty bounds the words ever written in the copy space: every
	// word of [toDirty, ToLo+quota) is zero. The copy space was last the
	// allocation space, so its bound is that space's pre-flip Alloc.
	toDirty int64

	// Collections counts completed garbage collections.
	Collections int64
	// AllocatedWords counts total words ever allocated.
	AllocatedWords int64
	// AllocatedObjects counts objects ever allocated.
	AllocatedObjects int64
	// LiveObjects is the number of objects currently in the allocation
	// space, maintained incrementally (allocation adds, collection sets
	// it to the survivor count) so observers never need a heap walk.
	LiveObjects int64

	// copiedObjects counts survivors of the in-progress collection.
	copiedObjects int64
}

// WordBytes is the byte size of one VM word (the heap is an []int64).
const WordBytes = 8

// New creates a heap over mem[lo:hi). The region is split into two
// semispaces. mem[lo:hi) must be zero (as make returns it): the heap
// only ever clears words it has dirtied itself.
func New(mem []int64, lo, hi int64, descs *types.DescTable) *Heap {
	return NewQuota(mem, lo, hi, descs, 0)
}

// NewQuota creates a heap over mem[lo:hi) whose usable space per
// semispace is capped at quotaWords (0 or ≥ the semispace size means
// uncapped). The cap is a per-instance tenant budget, not a sizing: a
// blocked allocation that would have fit in the full semispace is
// reported by QuotaBlocked so the host can distinguish "tenant over
// quota" from "machine out of memory".
func NewQuota(mem []int64, lo, hi int64, descs *types.DescTable, quotaWords int64) *Heap {
	h := &Heap{Mem: mem, Lo: lo, Hi: hi, Descs: descs, semi: (hi - lo) / 2}
	h.quota = h.semi
	if quotaWords > 0 && quotaWords < h.semi {
		h.quota = quotaWords
	}
	h.FromLo = lo
	h.ToLo = lo + h.semi
	h.Alloc = h.FromLo
	h.Limit = h.FromLo + h.quota
	h.toDirty = h.ToLo
	return h
}

// Quota returns the usable words per semispace (the per-instance
// budget; equals the semispace size when uncapped).
func (h *Heap) Quota() int64 { return h.quota }

// allocSize returns the word size an allocation with the given
// descriptor and element count would occupy, or ok=false for a
// negative open-array length.
func (h *Heap) allocSize(descID int, n int64) (int64, bool) {
	d := h.Descs.Get(descID)
	if d.Kind == types.DescOpenArray {
		if n < 0 {
			return 0, false
		}
		return 2 + n*d.ElemWords, true
	}
	return 1 + d.DataWords, true
}

// QuotaBlocked implements vmachine.QuotaChecker: it reports whether an
// allocation that just failed was blocked by the per-instance quota
// rather than by the semispace itself (i.e. it would have fit in the
// full semispace).
func (h *Heap) QuotaBlocked(descID int, n int64) bool {
	if h.quota >= h.semi {
		return false
	}
	size, ok := h.allocSize(descID, n)
	if !ok {
		return false
	}
	return h.Alloc+size > h.Limit && h.Alloc+size <= h.FromLo+h.semi
}

// SizeOf returns the total word size (including header and length
// words) of the object at addr.
func (h *Heap) SizeOf(addr int64) int64 {
	d := h.Descs.Get(int(h.Mem[addr]))
	if d.Kind == types.DescOpenArray {
		return 2 + h.Mem[addr+1]*d.ElemWords
	}
	return 1 + d.DataWords
}

// TryAlloc allocates an object with the given descriptor, returning its
// tidy address, or ok=false when the semispace is exhausted. n is the
// element count for open arrays (ignored otherwise). Memory handed out
// is already zeroed.
func (h *Heap) TryAlloc(descID int, n int64) (addr int64, ok bool) {
	d := h.Descs.Get(descID)
	size, ok := h.allocSize(descID, n)
	if !ok {
		return 0, false
	}
	if h.Alloc+size > h.Limit {
		return 0, false
	}
	addr = h.Alloc
	h.Alloc += size
	h.AllocatedWords += size
	h.AllocatedObjects++
	h.LiveObjects++
	h.Mem[addr] = int64(descID)
	if d.Kind == types.DescOpenArray {
		h.Mem[addr+1] = n
	}
	return addr, true
}

// BumpRec is the record-allocation fast path exported for the threaded
// interpreter: it allocates size words (header included) for descID
// without consulting the descriptor table — the caller precomputed the
// size when it resolved its dispatch table. It is TryAlloc minus the
// lookup: same counters, same zeroed-memory contract, same failure
// condition (ok=false leaves collection to the slow path).
func (h *Heap) BumpRec(descID, size int64) (addr int64, ok bool) {
	addr = h.Alloc
	if addr+size > h.Limit {
		return 0, false
	}
	h.Alloc = addr + size
	h.AllocatedWords += size
	h.AllocatedObjects++
	h.LiveObjects++
	h.Mem[addr] = descID
	return addr, true
}

// BumpArr is the open-array fast path: 2+n*elemWords words with the
// header and length word installed. Negative or absurdly large lengths
// return ok=false so the slow path owns every trap and every
// collection decision.
func (h *Heap) BumpArr(descID, n, elemWords int64) (addr int64, ok bool) {
	if n < 0 || n > h.semi {
		return 0, false
	}
	size := 2 + n*elemWords
	addr = h.Alloc
	if size > h.Limit-addr {
		return 0, false
	}
	h.Alloc = addr + size
	h.AllocatedWords += size
	h.AllocatedObjects++
	h.LiveObjects++
	h.Mem[addr] = descID
	h.Mem[addr+1] = n
	return addr, true
}

// Contains reports whether addr lies in the current allocation space
// (i.e. is plausibly a tidy object address).
func (h *Heap) Contains(addr int64) bool {
	return addr >= h.FromLo && addr < h.Alloc
}

// LiveWords returns the words currently in use in allocation space.
func (h *Heap) LiveWords() int64 { return h.Alloc - h.FromLo }

// AllocatedBytes returns the cumulative bytes ever allocated.
func (h *Heap) AllocatedBytes() int64 { return h.AllocatedWords * WordBytes }

// LiveBytes returns the bytes currently in use in allocation space.
func (h *Heap) LiveBytes() int64 { return h.LiveWords() * WordBytes }

// BeginCollection prepares the copy space and returns its base; the
// collector copies objects with CopyObject and finishes with
// FinishCollection.
func (h *Heap) BeginCollection() int64 {
	return h.ToLo
}

// Forwarded returns the new address of an already-copied object, or
// -1 if the object has not been copied.
func (h *Heap) Forwarded(addr int64) int64 {
	if hd := h.Mem[addr]; hd < 0 {
		return -hd - 1
	}
	return -1
}

// CopyObject copies the object at addr to the copy space at to,
// installs the forwarding word, and returns the object's new address
// and the next free copy-space position.
func (h *Heap) CopyObject(addr, to int64) (newAddr, next int64) {
	size := h.SizeOf(addr)
	copy(h.Mem[to:to+size], h.Mem[addr:addr+size])
	h.Mem[addr] = -(to + 1)
	h.copiedObjects++
	return to, to + size
}

// CopyObjectSized is the range-copy primitive for parallel collection
// workers: it copies size words from addr to the copy space at to and
// installs the forwarding word, but does not touch the survivor
// counter — concurrent workers own disjoint objects and disjoint
// destination ranges, so the only shared state would be the counter.
// The orchestrator accounts all survivors at once with AddCopied.
func (h *Heap) CopyObjectSized(addr, to, size int64) {
	copy(h.Mem[to:to+size], h.Mem[addr:addr+size])
	h.Mem[addr] = -(to + 1)
}

// AddCopied credits n survivors of the in-progress collection (the
// CopyObjectSized counterpart of CopyObject's built-in accounting).
func (h *Heap) AddCopied(n int64) { h.copiedObjects += n }

// FromSpan returns the address range of the current allocation space
// that holds objects, [lo, hi) — the domain a collection's MarkSet
// must cover.
func (h *Heap) FromSpan() (lo, hi int64) { return h.FromLo, h.Alloc }

// MarkSet is a lock-free bitmap of claimed tidy addresses over a word
// span [lo, hi): parallel mark workers race to Claim reachable objects
// and exactly one wins each. The zero value is unusable; construct
// with NewMarkSet and recycle across collections with Reset.
type MarkSet struct {
	lo   int64
	bits []uint64
}

// NewMarkSet creates a mark set covering [lo, hi).
func NewMarkSet(lo, hi int64) *MarkSet {
	s := &MarkSet{}
	s.Reset(lo, hi)
	return s
}

// Reset clears the set and re-targets it at [lo, hi), growing the
// backing bitmap if needed (so one set serves every collection cycle
// without reallocating).
func (s *MarkSet) Reset(lo, hi int64) {
	n := int((hi - lo + 63) / 64)
	if n < 0 {
		n = 0
	}
	if cap(s.bits) < n {
		s.bits = make([]uint64, n)
	} else {
		s.bits = s.bits[:n]
		clear(s.bits)
	}
	s.lo = lo
}

// Claim atomically marks addr, reporting whether this call was the
// first to do so. Safe for concurrent use.
func (s *MarkSet) Claim(addr int64) bool {
	i := uint64(addr - s.lo)
	w := &s.bits[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Marked reports whether addr has been claimed.
func (s *MarkSet) Marked(addr int64) bool {
	i := uint64(addr - s.lo)
	return atomic.LoadUint64(&s.bits[i>>6])&(1<<(i&63)) != 0
}

// AppendMarked appends every claimed address to out in ascending
// order, at a cost of one word read per 64 words of span plus one step
// per claimed address. It must not race with Claim.
func (s *MarkSet) AppendMarked(out []int64) []int64 {
	for i, w := range s.bits {
		base := s.lo + int64(i)*64
		for w != 0 {
			out = append(out, base+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// FinishCollection flips semispaces: the copy space (filled up to
// copyEnd) becomes the allocation space. Only its dirty remainder,
// [copyEnd, toDirty), is cleared, so allocations see zeroed memory at
// a cost bounded by what the space last held rather than by its size.
// The old allocation space becomes the copy space, dirty up to its
// pre-flip Alloc.
func (h *Heap) FinishCollection(copyEnd int64) {
	dirty := h.Alloc
	h.FromLo, h.ToLo = h.ToLo, h.FromLo
	h.Alloc = copyEnd
	h.Limit = h.FromLo + h.quota
	if copyEnd < h.toDirty {
		clear(h.Mem[copyEnd:h.toDirty])
	}
	h.toDirty = dirty
	h.Collections++
	h.LiveObjects = h.copiedObjects
	h.copiedObjects = 0
}

// PointerOffsets appends to out the word offsets (relative to the
// object's tidy address) of the pointer fields of the object at addr.
func (h *Heap) PointerOffsets(addr int64, out []int64) []int64 {
	d := h.Descs.Get(int(h.Mem[addr]))
	switch d.Kind {
	case types.DescOpenArray:
		n := h.Mem[addr+1]
		for i := int64(0); i < n; i++ {
			base := 2 + i*d.ElemWords
			for _, off := range d.ElemPtrOffsets {
				out = append(out, base+off)
			}
		}
	default:
		for _, off := range d.PtrOffsets {
			out = append(out, 1+off)
		}
	}
	return out
}

// Check validates basic heap invariants (headers in range, sizes within
// the allocation space); used by tests and the stress modes.
func (h *Heap) Check() error {
	for addr := h.FromLo; addr < h.Alloc; {
		hd := h.Mem[addr]
		if hd < 0 || int(hd) >= h.Descs.Len() {
			return fmt.Errorf("heap: bad header %d at %d", hd, addr)
		}
		size := h.SizeOf(addr)
		if size <= 0 || addr+size > h.Alloc {
			return fmt.Errorf("heap: object at %d has size %d beyond alloc %d", addr, size, h.Alloc)
		}
		addr += size
	}
	return nil
}
