package heap

import (
	"testing"

	"repro/internal/types"
)

func testHeap(t *testing.T, words int64) (*Heap, *types.DescTable) {
	t.Helper()
	mem := make([]int64, 64+words)
	dt := types.NewDescTable()
	return New(mem, 64, 64+words, dt), dt
}

func TestAllocLayout(t *testing.T) {
	h, dt := testHeap(t, 256)
	recID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "a", Type: types.IntType},
		{Name: "p", Type: types.NewRef(types.IntType)},
	}))
	arrID := dt.Intern(types.NewOpenArray(types.IntType))

	r, ok := h.TryAlloc(recID, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if h.Mem[r] != int64(recID) {
		t.Errorf("header %d", h.Mem[r])
	}
	if h.SizeOf(r) != 3 {
		t.Errorf("record size %d, want 3", h.SizeOf(r))
	}

	a, ok := h.TryAlloc(arrID, 5)
	if !ok {
		t.Fatal("array alloc failed")
	}
	if h.Mem[a+1] != 5 {
		t.Errorf("length word %d", h.Mem[a+1])
	}
	if h.SizeOf(a) != 7 {
		t.Errorf("array size %d, want 7", h.SizeOf(a))
	}
	if a != r+3 {
		t.Errorf("bump allocation not contiguous: %d then %d", r, a)
	}
	if !h.Contains(r) || !h.Contains(a) || h.Contains(a+100) {
		t.Error("Contains wrong")
	}
	if err := h.Check(); err != nil {
		t.Errorf("heap check: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	h, dt := testHeap(t, 64) // semispaces of 32 words
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	n := 0
	for {
		if _, ok := h.TryAlloc(recID, 0); !ok {
			break
		}
		n++
	}
	if n != 16 { // 32 words / 2 words per object
		t.Errorf("allocated %d objects, want 16", n)
	}
	if _, ok := h.TryAlloc(recID, 0); ok {
		t.Error("allocation succeeded after exhaustion")
	}
}

func TestNegativeArrayLength(t *testing.T) {
	h, dt := testHeap(t, 64)
	arrID := dt.Intern(types.NewOpenArray(types.IntType))
	if _, ok := h.TryAlloc(arrID, -1); ok {
		t.Error("negative length accepted")
	}
}

func TestCopyAndForward(t *testing.T) {
	h, dt := testHeap(t, 128)
	recID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "a", Type: types.IntType},
		{Name: "b", Type: types.IntType},
	}))
	r, _ := h.TryAlloc(recID, 0)
	h.Mem[r+1] = 42
	h.Mem[r+2] = 43

	to := h.BeginCollection()
	if h.Forwarded(r) >= 0 {
		t.Fatal("object forwarded before copy")
	}
	na, next := h.CopyObject(r, to)
	if na != to || next != to+3 {
		t.Errorf("copy returned %d,%d", na, next)
	}
	if h.Mem[na+1] != 42 || h.Mem[na+2] != 43 {
		t.Error("payload not copied")
	}
	if f := h.Forwarded(r); f != na {
		t.Errorf("forwarding %d, want %d", f, na)
	}
	h.FinishCollection(next)
	if h.Collections != 1 {
		t.Errorf("collections %d", h.Collections)
	}
	// The new allocation space starts after the copied data, zeroed.
	a2, ok := h.TryAlloc(recID, 0)
	if !ok || a2 != next {
		t.Errorf("post-flip allocation at %d, want %d", a2, next)
	}
	if h.Mem[a2+1] != 0 || h.Mem[a2+2] != 0 {
		t.Error("post-flip memory not zeroed")
	}
}

// TestFlipLeavesFreeSpaceZeroed drives many flips through both
// semispaces and checks the zeroed-memory contract after every one:
// every word of [Alloc, Limit) is zero. The schedule dirties a copy
// space far past where the next, smaller copy ends (a large live set,
// then small ones), and follows a full allocation space with a nearly
// empty one, so a flip that skipped the clear, or bounded it by the
// other semispace's high-water mark, leaves stale words behind.
func TestFlipLeavesFreeSpaceZeroed(t *testing.T) {
	type cycle struct{ alloc, live int } // alloc < 0: until full
	schedule := []cycle{
		{-1, 40}, // copy space now holds a large live set
		{-1, 2},  // ... and then a small one, far below that
		{1, 2},   // nearly empty allocation space, small copy
		{1, 1},
		{-1, 0},
		{3, 3},
		{-1, 25},
		{0, 0},
		{-1, 1},
	}
	for _, quota := range []int64{0, 96} {
		mem := make([]int64, 64+512)
		dt := types.NewDescTable()
		h := NewQuota(mem, 64, 64+512, dt, quota)
		recID := dt.Intern(types.NewRecord([]types.Field{
			{Name: "a", Type: types.IntType},
			{Name: "b", Type: types.IntType},
			{Name: "c", Type: types.IntType},
		}))
		for i, c := range schedule {
			for n := 0; c.alloc < 0 || n < c.alloc; n++ {
				a, ok := h.TryAlloc(recID, 0)
				if !ok {
					break
				}
				h.Mem[a+1], h.Mem[a+2], h.Mem[a+3] = int64(i+1), -1, int64(n+1)
			}
			to := h.BeginCollection()
			for a, n := h.FromLo, 0; a < h.Alloc && n < c.live; n++ {
				size := h.SizeOf(a)
				_, to = h.CopyObject(a, to)
				a += size
			}
			h.FinishCollection(to)
			for w := h.Alloc; w < h.Limit; w++ {
				if h.Mem[w] != 0 {
					t.Fatalf("quota=%d, after flip %d: word %d of free space [%d, %d) is %d",
						quota, i+1, w, h.Alloc, h.Limit, h.Mem[w])
				}
			}
			if err := h.Check(); err != nil {
				t.Fatalf("quota=%d, after flip %d: %v", quota, i+1, err)
			}
		}
	}
}

func TestPointerOffsetsHelpers(t *testing.T) {
	h, dt := testHeap(t, 256)
	listID := dt.Intern(types.NewRecord([]types.Field{
		{Name: "head", Type: types.IntType},
		{Name: "tail", Type: types.NewRef(types.IntType)},
	}))
	arrID := dt.Intern(types.NewOpenArray(types.NewRef(types.IntType)))

	r, _ := h.TryAlloc(listID, 0)
	offs := h.PointerOffsets(r, nil)
	if len(offs) != 1 || offs[0] != 2 {
		t.Errorf("record pointer offsets %v, want [2]", offs)
	}
	a, _ := h.TryAlloc(arrID, 3)
	offs = h.PointerOffsets(a, nil)
	if len(offs) != 3 || offs[0] != 2 || offs[2] != 4 {
		t.Errorf("array pointer offsets %v, want [2 3 4]", offs)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	h, dt := testHeap(t, 128)
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	r, _ := h.TryAlloc(recID, 0)
	h.Mem[r] = 999 // bogus descriptor
	if err := h.Check(); err == nil {
		t.Error("corrupted header not detected")
	}
}

// TestCumulativeCounters checks the incrementally maintained counters
// that telemetry snapshots read, so observers never need a heap walk.
func TestCumulativeCounters(t *testing.T) {
	h, dt := testHeap(t, 256)
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))

	var addrs []int64
	for i := 0; i < 5; i++ {
		a, ok := h.TryAlloc(recID, 0)
		if !ok {
			t.Fatal("alloc failed")
		}
		addrs = append(addrs, a)
	}
	if h.AllocatedObjects != 5 || h.LiveObjects != 5 {
		t.Errorf("allocated/live objects = %d/%d, want 5/5", h.AllocatedObjects, h.LiveObjects)
	}
	if h.AllocatedWords != 10 {
		t.Errorf("allocated words = %d, want 10 (5 × [header+field])", h.AllocatedWords)
	}
	if h.AllocatedBytes() != 10*WordBytes {
		t.Errorf("AllocatedBytes = %d, want %d", h.AllocatedBytes(), 10*WordBytes)
	}
	if h.LiveBytes() != 10*WordBytes {
		t.Errorf("LiveBytes = %d, want %d", h.LiveBytes(), 10*WordBytes)
	}

	// Collect with only two survivors: the live view shrinks, the
	// cumulative view does not.
	to := h.BeginCollection()
	next := to
	for _, a := range addrs[:2] {
		_, next = h.CopyObject(a, next)
	}
	h.FinishCollection(next)
	if h.Collections != 1 {
		t.Errorf("collections = %d, want 1", h.Collections)
	}
	if h.LiveObjects != 2 {
		t.Errorf("live objects after gc = %d, want 2", h.LiveObjects)
	}
	if h.AllocatedObjects != 5 || h.AllocatedWords != 10 {
		t.Errorf("cumulative counters changed across gc: %d objects, %d words",
			h.AllocatedObjects, h.AllocatedWords)
	}
	if h.LiveBytes() != 4*WordBytes {
		t.Errorf("LiveBytes after gc = %d, want %d", h.LiveBytes(), 4*WordBytes)
	}

	// A second cycle resets the survivor count, not the totals.
	if _, ok := h.TryAlloc(recID, 0); !ok {
		t.Fatal("post-gc alloc failed")
	}
	if h.LiveObjects != 3 || h.AllocatedObjects != 6 {
		t.Errorf("after post-gc alloc: live %d total %d, want 3/6", h.LiveObjects, h.AllocatedObjects)
	}
}

// TestQuotaCapsAllocation: a quota below the semispace size caps the
// usable space, QuotaBlocked distinguishes quota failures from true
// exhaustion, and the cap survives a semispace flip.
func TestQuotaCapsAllocation(t *testing.T) {
	mem := make([]int64, 64+256)
	dt := types.NewDescTable()
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	h := NewQuota(mem, 64, 64+256, dt, 16) // semi = 128, quota = 16

	if h.Quota() != 16 {
		t.Fatalf("quota %d, want 16", h.Quota())
	}
	if h.Limit != h.FromLo+16 {
		t.Fatalf("limit %d, want %d", h.Limit, h.FromLo+16)
	}
	// Each record is 2 words (header + field): 8 fit, the 9th does not.
	for i := 0; i < 8; i++ {
		if _, ok := h.TryAlloc(recID, 0); !ok {
			t.Fatalf("alloc %d failed inside quota", i)
		}
	}
	if _, ok := h.TryAlloc(recID, 0); ok {
		t.Fatal("allocation beyond quota succeeded")
	}
	if !h.QuotaBlocked(recID, 0) {
		t.Error("QuotaBlocked false for a quota-capped failure")
	}
	// An object too big even for the full semispace is not a quota
	// failure.
	arrID := dt.Intern(types.NewOpenArray(types.IntType))
	if h.QuotaBlocked(arrID, 1000) {
		t.Error("QuotaBlocked true for an allocation no semispace could hold")
	}
	// The cap survives FinishCollection's semispace flip.
	h.FinishCollection(h.BeginCollection())
	if h.Limit != h.FromLo+16 {
		t.Errorf("post-flip limit %d, want %d", h.Limit, h.FromLo+16)
	}
}

// TestQuotaUncappedNeverBlocked: without a quota, QuotaBlocked is
// always false — exhaustion is real out-of-memory.
func TestQuotaUncappedNeverBlocked(t *testing.T) {
	h, dt := testHeap(t, 64)
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	for {
		if _, ok := h.TryAlloc(recID, 0); !ok {
			break
		}
	}
	if h.QuotaBlocked(recID, 0) {
		t.Error("QuotaBlocked true on an uncapped heap")
	}
}

// TestQuotaSiblingIsolation is the multi-tenant regression: one heap
// exhausting its quota must leave a sibling heap (its own memory, its
// own quota) completely untouched.
func TestQuotaSiblingIsolation(t *testing.T) {
	dt := types.NewDescTable()
	recID := dt.Intern(types.NewRecord([]types.Field{{Name: "a", Type: types.IntType}}))
	newTenant := func() *Heap {
		return NewQuota(make([]int64, 64+256), 64, 64+256, dt, 16)
	}
	a, b := newTenant(), newTenant()

	// Fill b with a recognizable pattern first.
	addr, ok := b.TryAlloc(recID, 0)
	if !ok {
		t.Fatal("sibling alloc failed")
	}
	b.Mem[addr+1] = 0x5eed
	snapshot := append([]int64(nil), b.Mem...)

	// Exhaust a past its quota.
	for {
		if _, ok := a.TryAlloc(recID, 0); !ok {
			break
		}
	}
	if !a.QuotaBlocked(recID, 0) {
		t.Fatal("tenant a's failure not attributed to its quota")
	}

	// b's memory and accounting are untouched, and it can still allocate.
	for i, w := range b.Mem {
		if w != snapshot[i] {
			t.Fatalf("sibling word %d changed: %d -> %d", i, snapshot[i], w)
		}
	}
	if b.LiveObjects != 1 || b.Mem[addr+1] != 0x5eed {
		t.Fatal("sibling accounting or payload damaged")
	}
	if _, ok := b.TryAlloc(recID, 0); !ok {
		t.Error("sibling can no longer allocate")
	}
}

// TestMarkSetAppendMarked: the claimed addresses come back once each,
// in ascending order, across bitmap-word boundaries.
func TestMarkSetAppendMarked(t *testing.T) {
	s := NewMarkSet(100, 400)
	want := []int64{100, 163, 164, 227, 300, 399}
	for i := len(want) - 1; i >= 0; i-- {
		if !s.Claim(want[i]) {
			t.Fatalf("first Claim(%d) lost", want[i])
		}
	}
	if s.Claim(163) || s.Claim(300) {
		t.Error("second claim won")
	}
	got := s.AppendMarked(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendMarked = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendMarked = %v, want %v", got, want)
		}
	}
	s.Reset(100, 400)
	if got := s.AppendMarked(nil); len(got) != 0 {
		t.Errorf("after Reset: %v", got)
	}
}
