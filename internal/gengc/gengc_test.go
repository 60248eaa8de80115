package gengc_test

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// runGen compiles src with store checks and runs it under the
// generational collector.
func runGen(t *testing.T, src string, heapWords int64) (string, *machineStats) {
	t.Helper()
	opts := driver.NewOptions()
	opts.Generational = true
	c, err := driver.Compile("t.m3", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = heapWords
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("run: %v (out %q)", err, sb.String())
	}
	return sb.String(), &machineStats{
		minor: col.Minor, major: col.Major,
		barrierChecks: col.BarrierChecks, barrierHits: col.BarrierHits,
		promoted: col.PromotedWords, majorCopied: col.MajorCopied,
	}
}

type machineStats struct {
	minor, major               int64
	barrierChecks, barrierHits int64
	promoted, majorCopied      int64
}

// TestYoungGarbageStaysCheap: a program generating mostly short-lived
// objects needs only minor collections, and promotes little.
func TestYoungGarbageStaysCheap(t *testing.T) {
	out, st := runGen(t, `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR junk: L; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 3000 DO
    junk := NEW(L);
    junk.v := i;
    s := s + junk.v;
    junk := NIL;
  END;
  PutInt(s); PutLn();
END T.
`, 4096)
	if out != "4501500\n" {
		t.Errorf("output %q", out)
	}
	if st.minor == 0 {
		t.Error("no minor collections")
	}
	if st.major != 0 {
		t.Errorf("%d major collections for pure young garbage", st.major)
	}
	if st.promoted > 200 {
		t.Errorf("promoted %d words of garbage", st.promoted)
	}
	t.Logf("minor=%d major=%d promoted=%d checks=%d hits=%d",
		st.minor, st.major, st.promoted, st.barrierChecks, st.barrierHits)
}

// TestRemsetCatchesOldToYoung: an old object is mutated to point at
// young data; only the write barrier keeps the young object alive.
func TestRemsetCatchesOldToYoung(t *testing.T) {
	out, st := runGen(t, `
MODULE T;
TYPE Cell = REF RECORD v: INTEGER; ref: Cell; END;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR anchor: Cell; junk: L; i, s: INTEGER;
BEGIN
  anchor := NEW(Cell);      (* survives the first collections: promoted *)
  anchor.v := 7;
  s := 0;
  FOR i := 1 TO 2000 DO
    junk := NEW(L);         (* churn to force minors and promote anchor *)
    junk.v := i;
    IF i MOD 100 = 0 THEN
      (* store a fresh (young) cell into the old anchor *)
      anchor.ref := NEW(Cell);
      anchor.ref.v := i;
    END;
    junk := NIL;
  END;
  (* anchor.ref must still be intact *)
  s := anchor.v + anchor.ref.v;
  PutInt(s); PutLn();
END T.
`, 4096)
	if out != "2007\n" {
		t.Errorf("output %q", out)
	}
	if st.barrierHits == 0 {
		t.Error("barrier never recorded an old->young store")
	}
	t.Logf("minor=%d major=%d hits=%d/%d", st.minor, st.major, st.barrierHits, st.barrierChecks)
}

// TestMajorEscalation: when live data outgrows the old space's slack,
// major collections run and reclaim it.
func TestMajorEscalation(t *testing.T) {
	out, st := runGen(t, `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR keep: L; i, j, s: INTEGER;
PROCEDURE Cons(v: INTEGER; t: L): L =
  VAR c: L;
  BEGIN
    c := NEW(L);
    c.v := v;
    c.next := t;
    RETURN c;
  END Cons;
BEGIN
  s := 0;
  FOR i := 1 TO 6 DO
    keep := NIL;                (* drop the previous generation's list *)
    FOR j := 1 TO 150 DO
      keep := Cons(j, keep);    (* promoted, then becomes old garbage *)
    END;
    s := s + keep.v;
  END;
  PutInt(s); PutLn();
END T.
`, 3072)
	if out != "900\n" {
		t.Errorf("output %q", out)
	}
	if st.major == 0 {
		t.Error("expected at least one major collection")
	}
	t.Logf("minor=%d major=%d promoted=%d majorCopied=%d",
		st.minor, st.major, st.promoted, st.majorCopied)
}

// TestGenerationalMatchesPrecise: the benchmark-style churn program
// produces identical output under both collectors.
func TestGenerationalMatchesPrecise(t *testing.T) {
	src := `
MODULE T;
TYPE Node = REF RECORD v: INTEGER; left, right: Node; END;
VAR total: INTEGER;
PROCEDURE Build(d: INTEGER): Node =
  VAR n: Node;
  BEGIN
    IF d = 0 THEN RETURN NIL; END;
    n := NEW(Node);
    n.v := d;
    n.left := Build(d - 1);
    n.right := Build(d - 1);
    RETURN n;
  END Build;
PROCEDURE Sum(n: Node): INTEGER =
  BEGIN
    IF n = NIL THEN RETURN 0; END;
    RETURN n.v + Sum(n.left) + Sum(n.right);
  END Sum;
VAR i: INTEGER; tr: Node;
BEGIN
  total := 0;
  FOR i := 1 TO 40 DO
    tr := Build(6);
    total := total + Sum(tr);
  END;
  PutInt(total); PutLn();
END T.
`
	genOut, st := runGen(t, src, 8192)

	opts := driver.NewOptions()
	c, err := driver.Compile("t.m3", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 8192
	var sb strings.Builder
	cfg.Out = &sb
	m, _, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if genOut != sb.String() {
		t.Errorf("generational %q != precise %q", genOut, sb.String())
	}
	if st.minor == 0 {
		t.Error("no minor collections under churn")
	}
	t.Logf("gen: minor=%d major=%d promoted=%d", st.minor, st.major, st.promoted)
}

// TestRemsetAcrossMajorCompaction pins the minor→major→minor satellite:
// remembered-set slot addresses are raw old-space addresses, and a
// major collection moves every old object. The set is cleared at the
// end of a major — sound only because the nursery is reset in the same
// breath, so no old→young pointer can exist until the barrier records
// one at the slot's *new* address. The test interleaves minors, a
// major, and more minors with live old→young pointers on both sides of
// the compaction; a stale (pre-compaction) remembered slot would let a
// young referent be collected and corrupt the final values.
func TestRemsetAcrossMajorCompaction(t *testing.T) {
	src := `
MODULE T;
TYPE Cell = REF RECORD v: INTEGER; ref: Cell; END;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR anchor: Cell; keep: L; junk: L; i, j, s: INTEGER;
BEGIN
  anchor := NEW(Cell);
  anchor.v := 5;
  (* churn: minors promote anchor into the old space *)
  FOR i := 1 TO 600 DO junk := NEW(L); junk.v := i; junk := NIL; END;
  (* old->young store; only the remembered slot keeps the referent *)
  anchor.ref := NEW(Cell);
  anchor.ref.v := 11;
  FOR i := 1 TO 600 DO junk := NEW(L); junk.v := i; junk := NIL; END;
  (* grow long-lived lists until the old space forces a major *)
  FOR i := 1 TO 6 DO
    keep := NIL;
    FOR j := 1 TO 150 DO
      WITH c = NEW(L) DO c.v := j; c.next := keep; keep := c; END;
    END;
  END;
  (* after the compaction: a young store into a relocated old object *)
  anchor.ref.ref := NEW(Cell);
  anchor.ref.ref.v := 17;
  FOR i := 1 TO 600 DO junk := NEW(L); junk.v := i; junk := NIL; END;
  s := anchor.v + anchor.ref.v + anchor.ref.ref.v + keep.v;
  PutInt(s); PutLn();
END T.
`
	opts := driver.NewOptions()
	opts.Generational = true
	c, err := driver.Compile("t.m3", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 3072
	cfg.Tel = telemetry.New(telemetry.Config{})
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("run: %v (out %q)", err, sb.String())
	}
	if sb.String() != "183\n" {
		t.Errorf("output %q, want \"183\\n\" (a young referent died across the major?)", sb.String())
	}
	if col.BarrierHits < 2 {
		t.Errorf("barrier recorded %d old->young stores, want >= 2 (one each side of the major)", col.BarrierHits)
	}

	// The collection kind sequence must actually interleave: at least
	// one minor, then a major, then another minor.
	var kinds []int64
	for _, ev := range cfg.Tel.Events() {
		if ev.Kind == telemetry.EvGCBegin {
			kinds = append(kinds, ev.Args[0])
		}
	}
	firstMajor, lastMinor, minorsBefore := -1, -1, 0
	for i, k := range kinds {
		switch k {
		case telemetry.GCMajor:
			if firstMajor < 0 {
				firstMajor = i
			}
		case telemetry.GCMinor:
			lastMinor = i
			if firstMajor < 0 {
				minorsBefore++
			}
		}
	}
	if minorsBefore == 0 || firstMajor < 0 || lastMinor < firstMajor {
		t.Errorf("collection sequence %v does not interleave minor -> major -> minor", kinds)
	}
	t.Logf("minor=%d major=%d hits=%d sequence=%v", col.Minor, col.Major, col.BarrierHits, kinds)
}

// TestRequiresStoreChecks: refusing to run without barriers.
func TestRequiresStoreChecks(t *testing.T) {
	c, err := driver.Compile("t.m3", "MODULE T;\nBEGIN\nEND T.\n", driver.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NewGenerationalMachine(vmachine.DefaultConfig()); err == nil {
		t.Fatal("generational machine accepted a program without store checks")
	}
}

// TestPretenuringLargeObjects: objects larger than half the nursery go
// straight to the old space and survive collections.
func TestPretenuringLargeObjects(t *testing.T) {
	out, st := runGen(t, `
MODULE T;
TYPE V = REF ARRAY OF INTEGER;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR big: V; junk: L; i, s: INTEGER;
BEGIN
  big := NEW(V, 600);      (* bigger than half the 1024-word nursery *)
  FOR i := 0 TO 599 DO big[i] := i MOD 7; END;
  FOR i := 1 TO 800 DO
    junk := NEW(L);
    junk.v := i;
    junk := NIL;
  END;
  s := 0;
  FOR i := 0 TO 599 DO s := s + big[i]; END;
  PutInt(s); PutLn();
END T.
`, 8192)
	if out != "1795\n" { // 85 full 0..6 cycles (1785) + 0+1+2+3+4
		t.Errorf("output %q", out)
	}
	if st.minor == 0 {
		t.Error("no minor collections")
	}
	t.Logf("minor=%d major=%d promoted=%d", st.minor, st.major, st.promoted)
}

// TestPretenuredMemoryIsZeroAcrossMajors: pretenured arrays are
// allocated straight into the old space with no zeroing of their own,
// so they rely on the major flip having cleared what the vacated old
// space held. Every round fills a fresh array only after summing it,
// and arrays pile up until majors flip the old space back and forth
// over memory earlier rounds dirtied; any stale word shows in the sum.
func TestPretenuredMemoryIsZeroAcrossMajors(t *testing.T) {
	out, st := runGen(t, `
MODULE T;
TYPE V = REF ARRAY OF INTEGER;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR a: V; junk: L; i, k, s: INTEGER;
BEGIN
  s := 0;
  FOR k := 1 TO 40 DO
    a := NEW(V, 300);      (* bigger than half the 512-word nursery *)
    FOR i := 0 TO 299 DO s := s + a[i]; a[i] := k; END;
    FOR i := 1 TO 200 DO junk := NEW(L); junk.v := i; END;
  END;
  PutInt(s); PutLn();
END T.
`, 4096)
	if out != "0\n" {
		t.Errorf("output %q: a fresh array held stale words", out)
	}
	if st.major < 2 {
		t.Errorf("%d major collections; the old space never flipped back", st.major)
	}
	t.Logf("minor=%d major=%d", st.minor, st.major)
}

// TestGenerationalUnderStress collects at every allocation point under
// the generational collector.
func TestGenerationalUnderStress(t *testing.T) {
	opts := driver.NewOptions()
	opts.Generational = true
	c, err := driver.Compile("t.m3", `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR keep: L; i, s: INTEGER;
BEGIN
  FOR i := 1 TO 40 DO
    WITH c = NEW(L) DO
      c.v := i;
      c.next := keep;
      keep := c;
    END;
  END;
  s := 0;
  WHILE keep # NIL DO s := s + keep.v; keep := keep.next; END;
  PutInt(s); PutLn();
END T.
`, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.DefaultConfig()
	cfg.HeapWords = 8192
	cfg.StressGC = true
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "820\n" {
		t.Errorf("output %q", sb.String())
	}
	if col.Minor+col.Major < 40 {
		t.Errorf("stress produced only %d collections", col.Minor+col.Major)
	}
}
