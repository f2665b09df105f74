package engine

import (
	"fmt"
	"sync/atomic"
)

// Wide mode lets one job use more than one worker: when the pool is
// underloaded, a job's partition stage (or, for case c1, its DRB
// stage) fans post-bisection halves and its TIMER stage fans
// speculative hierarchy trials onto helper goroutines. All three
// fan-outs are result-transparent — partition derives every recursion
// node's rng seed from its position (see partition.Config.Spawn), DRB
// draws its seeds up front and recomputes a right half that guessed
// its first seed index wrong (see mapping.DRBConfig.Spawn), and TIMER
// replays the sequential acceptance order over speculated trials (see
// core.Options.Spawn) — so a wide job's JobResult quality fields are
// byte-identical to the sequential run; only wall-clock and the Width
// diagnostic change.
//
// Helpers are bounded twice. A token pool of max(1, Workers−1) caps the
// engine's total helper goroutines so wide jobs can never oversubscribe
// the machine beyond the configured pool size. And unless the job set
// JobSpec.Wide, each grant also checks pool occupancy: helpers are
// granted only while (other running jobs + queued jobs) stay within
// Options.WideThreshold of the pool, so wide execution yields to real
// concurrency the moment traffic arrives. Both checks are per-grant,
// not per-job: a long wide job narrows mid-flight as load builds and
// widens again when the pool drains.

// wideState tracks one job's helper usage; its snapshot becomes the
// job's Width diagnostic and the engine's wide counters.
type wideState struct {
	active atomic.Int64 // helpers currently running
	peak   atomic.Int64 // high-water mark of active
	grants atomic.Int64 // helpers granted over the job's lifetime
	// panicked records the first helper panic (as an error string); the
	// job is failed afterwards, exactly like a panic on the worker
	// goroutine itself (runGuarded's recover).
	panicked atomic.Value
}

// width returns 1 (the worker itself) plus the peak helper count.
func (st *wideState) width() int { return 1 + int(st.peak.Load()) }

// err returns the recorded helper panic as an error, or nil.
func (st *wideState) err() error {
	if v := st.panicked.Load(); v != nil {
		return fmt.Errorf("engine: wide helper panicked: %v", v)
	}
	return nil
}

// underloaded reports whether the pool has idle capacity to lend to a
// wide job: the jobs competing for workers — every running job except
// the asking one, plus everything still queued — fit within the
// threshold fraction of the pool.
func (e *Engine) underloaded() bool {
	thr := e.opt.WideThreshold
	if thr < 0 {
		return false
	}
	if thr == 0 {
		thr = defaultWideThreshold
	}
	others := e.running.Load() - 1 + int64(len(e.pending))
	return float64(others) <= thr*float64(e.opt.Workers)
}

// spawnFor returns the Spawn hook handed to one job's pipeline stages.
// force (JobSpec.Wide) skips the occupancy check; the token pool always
// applies. The hook is safe for concurrent calls, as the partition, DRB
// and TIMER contracts require.
func (e *Engine) spawnFor(force bool, st *wideState) func(func()) bool {
	return func(fn func()) bool {
		if !force && !e.underloaded() {
			return false
		}
		select {
		case <-e.wideTokens:
		default:
			return false
		}
		st.grants.Add(1)
		n := st.active.Add(1)
		for {
			p := st.peak.Load()
			if n <= p || st.peak.CompareAndSwap(p, n) {
				break
			}
		}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					// First panic wins; fn's own defers (wg.Done / channel
					// close) already ran during unwinding, so the waiting
					// stage is not deadlocked, just poisoned — the job is
					// failed once the pipeline returns.
					st.panicked.CompareAndSwap(nil, fmt.Sprintf("%v", r))
				}
				st.active.Add(-1)
				e.wideTokens <- struct{}{}
			}()
			fn()
		}()
		return true
	}
}

// wideEligible reports whether the job should get a Spawn hook at all:
// either it asked (Spec.Wide) or auto-wide is enabled (WideThreshold
// not negative).
func (e *Engine) wideEligible(spec JobSpec) bool {
	return spec.Wide || e.opt.WideThreshold >= 0
}
