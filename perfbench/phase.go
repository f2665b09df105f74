package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// outcome is one fresh job of a timed phase as its client saw it, plus
// the resubmission of its spec on systems with a job ledger.
type outcome struct {
	seq     int
	end     time.Duration // completion, since the phase began
	latency float64       // ms, submit to terminal snapshot
	queue   float64       // ms, the job's Started − Submitted
	result  *engine.JobResult
	err     error

	resubmitted bool
	dedup       float64 // ms, resubmission to its done answer
	dedupErr    error
}

// phase is one closed-loop timed phase and the process and engine
// counters it moved.
type phase struct {
	outcomes []outcome // in job order
	elapsed  time.Duration
	heapMB   float64
	allocMB  float64
	numGC    uint32
	cpu      time.Duration
	counters engineCounters
}

// setUp builds the system and runs the workload's warm-up jobs through
// it, as many at a time as the workload has clients.
func setUp(ctx context.Context, w *workload, workdir string, rec *recorder) (system, error) {
	var sys system
	if w.service {
		s, err := startService(ctx, workdir, 2, rec)
		if err != nil {
			return nil, err
		}
		sys = s
	} else {
		sys = newInproc()
	}
	var next atomic.Int64
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(w.warmup) {
					return
				}
				o := runOne(ctx, sys, w.warmup[k], -1, nil)
				if err := o.failure(); err != nil {
					errs[c] = fmt.Errorf("warm-up job %d: %w", k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// measureSetup sets the system up reps times, tearing down all but the
// last, and returns the last with every set-up's duration in seconds.
func measureSetup(ctx context.Context, w *workload, workdir string, reps int, rec *recorder) (system, []float64, error) {
	var secs []float64
	for r := 0; ; r++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := setUp(ctx, w, workdir, rec)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if r == reps-1 {
			return sys, secs, nil
		}
		sys.close()
	}
}

// runOne runs spec as job seq: submit, wait for the terminal snapshot,
// and on a system with a ledger resubmit it, which must be answered
// done from the ledger with an equal result.
//
// Spans of the fresh job carry tag 2·seq and those of the resubmission
// 2·seq+1.
func runOne(ctx context.Context, sys system, spec engine.JobSpec, seq int, rec *recorder) outcome {
	o := outcome{seq: seq}
	t0 := time.Now()
	rec.enter(2 * seq)
	job, err := sys.run(ctx, spec, 2*seq, rec)
	o.latency = ms(int64(time.Since(t0)))
	if err == nil {
		o.result, err = doneResult(job)
	}
	if o.err = err; err != nil {
		return o
	}
	o.queue = ms(int64(job.Started.Sub(job.Submitted)))
	rec.addAt("engine.queue", job.Submitted, job.Started, 2*seq)

	t1 := time.Now()
	rec.enter(2*seq + 1)
	twin, ok, err := sys.resubmit(ctx, spec, 2*seq+1, rec)
	if !ok {
		return o
	}
	o.resubmitted = true
	o.dedup = ms(int64(time.Since(t1)))
	if err == nil {
		err = checkLedgerServe(twin)
	}
	if err == nil && !reflect.DeepEqual(twin.Result.StripPerf(), o.result.StripPerf()) {
		err = fmt.Errorf("resubmission of job %d returned a different result", seq)
	}
	o.dedupErr = err
	return o
}

// failure is the first error of the outcome's operations, or nil.
func (o outcome) failure() error {
	if o.err != nil {
		return o.err
	}
	return o.dedupErr
}

// minJobs is the fewest fresh jobs a timed phase should hold, so that
// minBeyond of them lie beyond the p95.
const minJobs = 20 * minBeyond

// timedPhase runs the workload's closed loop for the given duration:
// each client takes the next job of the list, waits for its result
// (and resubmits it where the system has a ledger), and goes on until
// the deadline. Jobs in flight at the deadline finish and count. On a
// host too slow to reach minJobs in time, the phase runs on until it
// has them, for at most three times its length.
func timedPhase(ctx context.Context, w *workload, sys system, seconds float64, rec *recorder) *phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := countEngines(sys.engines())
	cpu0 := cpuTime()

	var next atomic.Int64
	per := make([][]outcome, w.clients)
	t0 := time.Now()
	length := time.Duration(seconds * float64(time.Second))
	deadline, limit := t0.Add(length), t0.Add(3*length)
	more := func() bool {
		now := time.Now()
		return now.Before(deadline) || (next.Load() < minJobs && now.Before(limit))
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for more() {
				seq := int(next.Add(1) - 1)
				o := runOne(ctx, sys, w.spec(seq), seq, rec)
				o.end = time.Since(t0)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	p.counters = countEngines(sys.engines()).sub(c0)
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second frees them. What the pools hold at the
	// deadline depends on when the last in-run collection fell, and
	// counting it made the figure vary by a fifth between runs.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.numGC = m1.NumGC - m0.NumGC

	p.outcomes = make([]outcome, next.Load())
	for _, list := range per {
		for _, o := range list {
			p.outcomes[o.seq] = o
		}
	}
	return p
}

// perSecond counts the fresh jobs completed in each second of the
// phase. A stall, such as a ledger compaction, shows as a thin second;
// a slow host as uniformly thin ones.
func (p *phase) perSecond() []int {
	win := make([]int, int(p.elapsed/time.Second)+1)
	for _, o := range p.outcomes {
		win[int(o.end/time.Second)]++
	}
	return win
}

// tally counts a phase's operations: fresh jobs plus resubmissions
// attempted, and those that failed.
func (p *phase) tally() (attempted, failed int) {
	for _, o := range p.outcomes {
		attempted++
		if o.err != nil {
			failed++
		}
		if o.resubmitted {
			attempted++
			if o.dedupErr != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// fresh returns the latencies of the fresh jobs that finished done, and
// of their resubmissions.
func (p *phase) fresh() (lat, dedup, queue []float64) {
	for _, o := range p.outcomes {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.latency)
		queue = append(queue, o.queue)
		if o.resubmitted && o.dedupErr == nil {
			dedup = append(dedup, o.dedup)
		}
	}
	return lat, dedup, queue
}

// check recomputes the seed's sample of finished jobs with a sequential
// Engine.Run on a reference engine and compares the quality fields. It
// returns how many jobs it checked and the mismatches and errors found.
func check(w *workload, outs []outcome) (checked int, bad []error) {
	var todo []outcome
	for _, o := range outs {
		if o.err == nil && w.checked(o.seq) {
			todo = append(todo, o)
		}
	}
	ref := engine.New(engine.Options{Workers: 1})
	defer ref.Close()
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(todo) {
					return
				}
				o := todo[k]
				want, err := ref.Run(w.spec(o.seq))
				switch {
				case err != nil:
					errs[k] = fmt.Errorf("reference run of job %d: %w", o.seq, err)
				case !reflect.DeepEqual(want.StripPerf(), o.result.StripPerf()):
					errs[k] = fmt.Errorf("job %d: result differs from a sequential Engine.Run (coco %d, want %d)",
						o.seq, o.result.CocoAfter, want.CocoAfter)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			bad = append(bad, err)
		}
	}
	return len(todo), bad
}
