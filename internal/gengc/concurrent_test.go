package gengc_test

// Tests for mostly-concurrent major collections: a multi-threaded soak
// that drives escalations through the scheduler's split protocol
// (initial pause / mark bursts / final pause), and a single-threaded
// equivalence check that the direct-Collect path (gc.RunCycle) is
// indistinguishable from the stop-the-world major.

import (
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/vmachine"
)

// genSoakSrc is the gc soak program with a generational twist. Each
// thread's churn makes young garbage plus a kept chain that survives
// minors, gets promoted, and then becomes old garbage; each round also
// drops a pretenured array straight into the old space, so cycles are
// triggered by a failed old-space allocation (pendingOld) while the
// nursery still has headroom — the other threads keep allocating and
// storing during marking, which is what exercises black allocation and
// the SATB barrier. Every kept cell is additionally threaded through a
// shared heap slot so in-flight cycles see stores that overwrite live
// pointers (the barrier's claim path, not just its nil-old fast-out).
const genSoakSrc = `
MODULE GW;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
TYPE Vec = REF ARRAY OF INTEGER;
VAR hold: List; big: Vec; done1, done2, done3, s1, s2, s3, s0, t: INTEGER;

PROCEDURE Churn(n: INTEGER): INTEGER =
  VAR keep, junk: List; i, s: INTEGER;
  BEGIN
    keep := NIL;
    FOR i := 1 TO n DO
      junk := NEW(List);
      junk.head := i;
      IF i MOD 5 = 0 THEN
        junk.tail := keep;
        keep := junk;
        hold.tail := keep;  (* overwrites the previous round's pointer *)
      END;
    END;
    s := 0;
    WHILE keep # NIL DO s := s + keep.head; keep := keep.tail; END;
    RETURN s;
  END Churn;

PROCEDURE Loop(n: INTEGER): INTEGER =
  VAR r, s: INTEGER;
  BEGIN
    FOR r := 1 TO 24 DO
      big := NEW(Vec, 300);  (* pretenured: > half the 512-word nursery *)
      s := Churn(n);
    END;
    RETURN s;
  END Loop;

PROCEDURE W1() = BEGIN s1 := Loop(180); done1 := 1; END W1;
PROCEDURE W2() = BEGIN s2 := Loop(140); done2 := 1; END W2;
PROCEDURE W3() = BEGIN s3 := Loop(100); done3 := 1; END W3;

BEGIN
  hold := NEW(List);
  s0 := Loop(220);
  WHILE done1 = 0 DO t := t + 1; END;
  WHILE done2 = 0 DO t := t + 1; END;
  WHILE done3 = 0 DO t := t + 1; END;
  PutInt(s0 + s1 + s2 + s3); PutLn();
END GW.
`

// Each worker keeps the multiples of 5 up to n; rounds overwrite, so
// the final sum is 5*k*(k+1)/2 with k = n DIV 5 per thread:
// 4950 + 3330 + 2030 + 1050.
const genSoakWant = "11360\n"

// TestConcurrentMajorSoak runs four mutator threads on a generational
// heap small enough that promoted garbage repeatedly fills the old
// space, so major escalations are driven through the scheduler's
// concurrent protocol: StartCycle at the rendezvous, MarkStep bursts
// at pass boundaries, FinishCycle in the final pause. Debug keeps heap
// invariants checked inside every pause.
func TestConcurrentMajorSoak(t *testing.T) {
	opts := driver.NewOptions()
	opts.Generational = true
	opts.Multithreaded = true
	opts.ConcurrentMark = true
	c, err := driver.Compile("gensoak.m3", genSoakSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vmachine.Config{HeapWords: 4096, StackWords: 4096, MaxThreads: 8, Quantum: 53}
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewGenerationalMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	// A tiny burst budget stretches each cycle across many pass
	// boundaries, so mutators allocate (black) and overwrite pointers
	// (SATB-logged) while marking is in flight — the interleavings the
	// snapshot argument exists for.
	col.MarkBudget = 8
	for _, name := range []string{"W1", "W2", "W3"} {
		p := c.Prog.FindProc(name)
		if p < 0 {
			t.Fatalf("proc %s not found", name)
		}
		if _, err := m.Spawn(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(1_000_000_000); err != nil {
		t.Fatalf("%v (out=%q)", err, sb.String())
	}
	if sb.String() != genSoakWant {
		t.Errorf("output %q, want %q", sb.String(), genSoakWant)
	}
	if col.Minor == 0 {
		t.Error("expected minor collections")
	}
	if col.Cycles == 0 {
		t.Error("expected at least one concurrent major cycle")
	}
	if col.Major < col.Cycles {
		t.Errorf("Major %d < Cycles %d: every concurrent cycle is a major", col.Major, col.Cycles)
	}
	t.Logf("minor=%d major=%d cycles=%d satbLogged=%d promoted=%d",
		col.Minor, col.Major, col.Cycles, col.SATBLogged, col.PromotedWords)
}

// TestConcurrentMajorSplitMatchesSTW pins the direct-Collect split
// path: on a single-threaded machine a concurrent escalation runs
// StartCycle, the mark drain, and FinishCycle back-to-back, which must
// be indistinguishable from the stop-the-world major — same output and
// the same minor/major schedule on the same heap.
func TestConcurrentMajorSplitMatchesSTW(t *testing.T) {
	src := `
MODULE T;
TYPE L = REF RECORD v: INTEGER; next: L; END;
VAR keep: L; i, j, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 6 DO
    keep := NIL;
    FOR j := 1 TO 150 DO
      WITH c = NEW(L) DO
        c.v := j;
        c.next := keep;
        keep := c;
      END;
    END;
    s := s + keep.v;
  END;
  PutInt(s); PutLn();
END T.
`
	run := func(concurrent bool) (string, int64, int64, int64) {
		t.Helper()
		opts := driver.NewOptions()
		opts.Generational = true
		opts.ConcurrentMark = concurrent
		c, err := driver.Compile("t.m3", src, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = 3072
		var sb strings.Builder
		cfg.Out = &sb
		m, col, err := c.NewGenerationalMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col.Debug = true
		if err := m.Run(100_000_000); err != nil {
			t.Fatalf("concurrent=%v: %v (out %q)", concurrent, err, sb.String())
		}
		return sb.String(), col.Minor, col.Major, col.Cycles
	}
	outSTW, minorSTW, majorSTW, _ := run(false)
	if outSTW != "900\n" {
		t.Fatalf("stw output %q", outSTW)
	}
	outConc, minorConc, majorConc, cycles := run(true)
	if outConc != outSTW {
		t.Errorf("split output %q, stw %q", outConc, outSTW)
	}
	if minorConc != minorSTW || majorConc != majorSTW {
		t.Errorf("schedule diverged: split minor/major %d/%d, stw %d/%d",
			minorConc, majorConc, minorSTW, majorSTW)
	}
	if majorSTW == 0 {
		t.Fatal("workload never escalated to a major; the test proves nothing")
	}
	if cycles != majorConc {
		t.Errorf("cycles %d != majors %d: every split major is one cycle", cycles, majorConc)
	}
}
