package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/gcserve"
	"repro/internal/telemetry"
)

const (
	// serveHeapWords is the gcserve CLI's default per-tenant heap.
	serveHeapWords = 1024
	// sessionGrant is the step grant per session resume, about a third
	// of a session's run.
	sessionGrant = 20_000
	// warmRequests sizes the server's warm-up at set-up.
	warmRequests = 300
	// openRate and openSegment size the traced run's open-loop segment:
	// a quarter of the rate the closed loop sustains on two cores, so
	// the generator's lateness and the in-flight peak are read off a
	// server that keeps up.
	openRate    = 250.0
	openSegment = time.Second
)

// request kinds.
const (
	kindRun     = iota // one-shot RunProgram
	kindSession        // OpenSession, Resume until done
	kindAbandon        // OpenSession, one Resume, CloseSession
)

// drawKind picks a request kind: half one-shot runs, two fifths
// sessions run to completion, one tenth sessions abandoned midway.
func drawKind(r *rng) int {
	switch u := r.intn(10); {
	case u >= 9:
		return kindAbandon
	case u >= 5:
		return kindSession
	}
	return kindRun
}

func mixedKinds(r *rng, n int) []int {
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = drawKind(r)
	}
	return kinds
}

// served is one finished request.
type served struct {
	kind int
	// latency runs from the request's due time (open loop) or from
	// when its client sent it (closed loop).
	latency time.Duration
	late    time.Duration // open loop: how late the generator sent it
	ok      bool
	// refused marks admission refusal; err says what went wrong.
	refused bool
	err     string
	// open and runs (RunProgram or Resume calls) are timed on traced
	// requests only.
	open        time.Duration
	runs        []time.Duration
	calls       int64
	steps       int64
	collections int64
	slices      int64
	id          string
	// final is the completed run's collection count (0 if abandoned).
	final int64
}

// server is a running gcserve.Server with the session program
// registered.
type server struct {
	srv  *gcserve.Server
	want string
	cs   *compiledSet

	mu    sync.Mutex
	final int64 // collections of the first completed run
}

// sessionParams picks the session program's size from the seed: about
// twenty collections per one-shot run at the default tenant heap.
func sessionParams(seed int64) (requests, cacheEvery, perReq int) {
	r := newRNG(seed)
	return 200 + r.intn(40), 8, 16
}

// startServer starts a server with the gcserve CLI defaults (Workers =
// nproc, 1024-word tenant heaps), registers the session program sized
// from seed and warms it up with warmRequests closed-loop requests,
// so the Go heap, the tenant pool and the scheduler are in their
// steady state before anything is timed.
func startServer(seed int64, opts driver.Options, traced bool) (*server, map[string]string, error) {
	requests, cacheEvery, perReq := sessionParams(seed)
	src := gcserve.SessionWorkloadSource(requests, cacheEvery, perReq)
	st := &server{
		srv: gcserve.New(gcserve.Config{
			HeapWords:  serveHeapWords,
			Fuel:       20_000,
			Workers:    runtime.NumCPU(),
			MaxTenants: 4096,
			KeepStats:  1 << 14,
			Tel:        telemetry.New(telemetry.Config{RingSize: 1 << 14}),
		}),
		want: gcserve.SessionWorkloadWant(requests, cacheEvery, perReq),
	}
	fail := func(err error) (*server, map[string]string, error) {
		st.srv.Close()
		return nil, nil, err
	}
	if err := st.srv.Register("session", src, opts); err != nil {
		return fail(err)
	}
	qs, _ := closedLoop(st, mixedKinds(newRNG(seed^0xA11), warmRequests), false)
	for _, q := range qs {
		if !q.ok {
			return fail(fmt.Errorf("warm-up request: %s", q.err))
		}
	}
	cs, err := compileSet([]program{{"session", src}}, opts, traced)
	if err != nil {
		return fail(err)
	}
	st.cs = cs
	return st, map[string]string{"session": st.want}, nil
}

// account checks a finished request, an attempted operation: besides
// its output, every completed run must make as many collections as the
// first.
func (st *server) account(res *result, q *served) {
	if q.ok && q.final != 0 {
		st.mu.Lock()
		if st.final == 0 {
			st.final = q.final
		}
		first := st.final
		st.mu.Unlock()
		if q.final != first {
			q.ok = false
			q.err = fmt.Sprintf("completed run made %d collections, the first %d", q.final, first)
		}
	}
	res.check(q.ok, "request kind %d: %s", q.kind, q.err)
}

// openLoop offers requests at rate (Poisson arrivals drawn from r) for
// dur, each sent at its due time whether or not earlier ones finished,
// and waits for all of them. It returns the finished requests and the
// most that were in flight at once.
func openLoop(st *server, rate float64, dur time.Duration, r *rng, traced bool) ([]*served, int64) {
	var mu sync.Mutex
	var out []*served
	var inflight, maxInflight int64
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(-math.Log(1-r.float()) / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		kind := drawKind(r)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		mu.Lock()
		inflight++
		maxInflight = max(maxInflight, inflight)
		mu.Unlock()
		wg.Add(1)
		go func(due time.Time, kind int, late time.Duration) {
			defer wg.Done()
			q := request(st, kind, traced)
			q.latency = time.Since(due)
			q.late = late
			mu.Lock()
			inflight--
			out = append(out, q)
			mu.Unlock()
		}(due, kind, late)
	}
	wg.Wait()
	return out, maxInflight
}

// closedLoop performs one request of each kind in kinds from
// 2×workers clients, each sending its next request when its last one
// returns, and returns the finished requests and the time until all
// completed.
func closedLoop(st *server, kinds []int, traced bool) ([]*served, time.Duration) {
	out := make([]*served, len(kinds))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 2*runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(kinds) {
					return
				}
				t := time.Now()
				out[i] = request(st, kinds[i], traced)
				out[i].latency = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// request performs one request of kind and checks its output against
// the closed form.
func request(st *server, kind int, traced bool) *served {
	q := &served{kind: kind}
	s := st.srv
	timed := func(f func() (gcserve.RunResult, error)) (gcserve.RunResult, error) {
		t := time.Now()
		rr, err := f()
		if traced {
			q.runs = append(q.runs, time.Since(t))
		}
		return rr, err
	}
	if kind == kindRun {
		rr, err := timed(func() (gcserve.RunResult, error) { return s.RunProgram("session") })
		if err != nil || rr.Trap != "" || !rr.Done {
			q.fail(err, "run: err=%v trap=%q done=%v", err, rr.Trap, rr.Done)
			return q
		}
		q.calls, q.steps, q.collections, q.slices = 1, rr.Steps, rr.Collections, rr.Slices
		q.id = rr.ID
		q.final = rr.Collections
		q.checkOutput(rr.Output, st.want)
		return q
	}
	t := time.Now()
	id, err := s.OpenSession("session")
	if traced {
		q.open = time.Since(t)
	}
	if err != nil {
		q.fail(err, "open session: %v", err)
		return q
	}
	q.id = id
	for {
		rr, err := timed(func() (gcserve.RunResult, error) { return s.Resume(id, sessionGrant) })
		if err != nil || rr.Trap != "" {
			q.fail(err, "resume: err=%v trap=%q", err, rr.Trap)
			return q
		}
		q.calls++
		q.steps, q.collections, q.slices = rr.Steps, rr.Collections, rr.Slices
		if rr.Done {
			q.final = rr.Collections
			q.checkOutput(rr.Output, st.want)
			return q
		}
		if kind == kindAbandon {
			err := s.CloseSession(id)
			// Nothing is printed before the epilogue, so a parked
			// session's output is a prefix of the reference.
			switch {
			case err != nil:
				q.fail(err, "close session: %v", err)
			case !strings.HasPrefix(st.want, rr.Output):
				q.err = fmt.Sprintf("abandoned session output %q is not a prefix of the reference", clip(rr.Output))
			default:
				q.ok = true
			}
			return q
		}
	}
}

// fail records a failed API call.
func (q *served) fail(err error, format string, args ...any) {
	q.refused = errors.Is(err, gcserve.ErrAdmission)
	q.err = fmt.Sprintf(format, args...)
}

// checkOutput compares a completed request's output with the
// reference.
func (q *served) checkOutput(got, want string) {
	q.ok = got == want
	if !q.ok {
		q.err = fmt.Sprintf("output %q, reference %q", clip(got), clip(want))
	}
}

// serveLayers adds the server API's per-layer values for traced
// requests: call times, the work each API call did and refusals.
func serveLayers(l layers, qs []*served) {
	var opens, runs, resumes []float64
	var calls, steps, collections, slices int64
	for _, q := range qs {
		if q.open > 0 {
			opens = append(opens, millis(q.open))
		}
		for _, d := range q.runs {
			if q.kind == kindRun {
				runs = append(runs, millis(d))
			} else {
				resumes = append(resumes, millis(d))
			}
		}
		calls += q.calls
		steps += q.steps
		collections += q.collections
		slices += q.slices
		if q.refused {
			l["gcserve.refused"]++
		}
	}
	if calls > 0 {
		l["gcserve.steps_per_req"] = float64(steps) / float64(calls)
		l["gcserve.collections_per_req"] = float64(collections) / float64(calls)
		l["gcserve.slices_per_req"] = float64(slices) / float64(calls)
	}
	l["gcserve.open_ms"] = median(opens)
	l["gcserve.run_ms"] = median(runs)
	l["gcserve.resume_ms"] = median(resumes)
}

// loadLayers adds what an open-loop segment measured: the most
// requests in flight at once and how late the generator sent them, on
// average.
func loadLayers(l layers, qs []*served, inflight int64) {
	late := make([]float64, len(qs))
	for i, q := range qs {
		late[i] = millis(q.late)
	}
	l["gcserve.inflight_max"] = float64(inflight)
	l["loadgen.late_ms"] = mean(late)
}
