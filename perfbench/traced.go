package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/jobstore"
)

// Sizes and job-number ranges of the traced run's extra phases. Serial
// and replay jobs use their own ranges of the workload's job list, so
// their specs are fresh and their span tags never meet the timed
// phase's.
const (
	serialJobs = 24
	serialSeq0 = 1 << 20
	replayJobs = 16
)

// runTraced is the per-layer run: an untraced timed phase as the
// overhead reference, then the same phase on a fresh set-up with spans
// recorded, a serial pass of jobs through the service stack (the
// workload's own fleet, or a side fleet for in-process workloads), and
// a single-threaded replay of the first jobs through the pipeline's
// public calls.
func runTraced(ctx context.Context, w *workload, cfg config, h host) error {
	sys, setups, err := measureSetup(ctx, w, cfg.workdir, 1, nil)
	if err != nil {
		return err
	}
	plain := timedPhase(ctx, w, sys, cfg.seconds, nil)
	sys.close()
	plainRows, err := e2eRows(plain, setups)
	if err != nil {
		return err
	}

	rec := newRecorder()
	sys, setups, err = measureSetup(ctx, w, cfg.workdir, 1, rec)
	if err != nil {
		return err
	}
	p := timedPhase(ctx, w, sys, cfg.seconds, rec)
	tracedRows, err := e2eRows(p, setups)
	if err != nil {
		sys.close()
		return err
	}
	svc, own := sys.(*service)
	if !own {
		if svc, err = startService(ctx, cfg.workdir, 2, rec); err != nil {
			sys.close()
			return err
		}
	}
	sp, err := serialPhase(ctx, w, svc, rec)
	if !own {
		svc.close()
	}
	sys.close()
	if err != nil {
		return err
	}

	attempted, failed := plain.tally()
	a2, f2 := p.tally()
	attempted, failed = attempted+a2+sp.attempted, failed+f2+sp.failed+int(sp.shed)
	checked, bad := check(w, plain.outcomes)
	c2, bad2 := check(w, p.outcomes)
	checked += c2
	bad = append(bad, bad2...)

	rp := newReplay(rec)
	var replayed []replayedJob
	for k := 0; k < replayJobs && k < len(p.outcomes); k++ {
		o := p.outcomes[k]
		if o.err != nil {
			continue
		}
		spec := w.spec(k)
		got, err := rp.job(spec, replayTag0+k)
		attempted++
		if err == nil && !reflect.DeepEqual(*got, o.result.StripPerf()) {
			err = fmt.Errorf("replay of job %d differs from the engine's result", k)
		}
		if err != nil {
			bad = append(bad, err) // counted as failed with the checks
			continue
		}
		replayed = append(replayed, replayedJob{spec: spec, result: got})
	}
	if rp.jobs == 0 {
		return fmt.Errorf("no job could be replayed")
	}
	appendUS, err := ledgerAppends(cfg.workdir, replayed)
	if err != nil {
		return err
	}
	failed += len(bad)
	reportErrors(append(plain.outcomes, p.outcomes...), bad)

	spans := rec.snapshot()
	spanFile := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}
	rows, err := layerRows(w, p, sp, rp, spans, appendUS)
	if err != nil {
		return err
	}
	printMeta(h, map[string]any{"checked": checked, "spans": len(spans), "span_file": spanFile})
	printOverhead(plainRows, tracedRows)
	printSelfTimes(spans)
	printRows("per-layer", rows)
	return printReport(failed, attempted, rows)
}

// replayTag0 offsets the replay's span tags past every job tag.
const replayTag0 = 1 << 30

type replayedJob struct {
	spec   engine.JobSpec
	result *engine.JobResult
}

// serialStats is what the serial pass through the service stack saw.
type serialStats struct {
	outcomes          []outcome
	attempted, failed int
	counters          engineCounters
	retries, failover int64
	shed              int64
}

// serialPhase sends serialJobs fresh jobs of the workload one at a
// time through the service stack, each followed by its resubmission,
// so that handler spans nest by time under the client span of the job
// they serve.
func serialPhase(ctx context.Context, w *workload, s *service, rec *recorder) (*serialStats, error) {
	sp := &serialStats{}
	c0 := countEngines(s.engines())
	rec.serial(true)
	for k := 0; k < serialJobs; k++ {
		o := runOne(ctx, s, w.spec(serialSeq0+k), serialSeq0+k, rec)
		sp.outcomes = append(sp.outcomes, o)
	}
	rec.serial(false)
	sp.counters = countEngines(s.engines()).sub(c0)
	for _, o := range sp.outcomes {
		sp.attempted += 2
		if o.err != nil {
			sp.failed++
		}
		if o.dedupErr != nil || !o.resubmitted {
			sp.failed++
		}
	}
	var err error
	sp.retries, sp.failover, sp.shed, err = s.faults(ctx)
	return sp, err
}

// ledgerAppends times jobstore appends on a fresh ledger with the
// replayed jobs' own spec and result JSON: each job's submitted,
// running and done records. It returns each append's time in µs.
func ledgerAppends(workdir string, jobs []replayedJob) ([]float64, error) {
	dir, err := os.MkdirTemp(workdir, "ledger-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, _, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var us []float64
	timed := func(f func() error) error {
		t0 := time.Now()
		err := f()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		return err
	}
	for k, j := range jobs {
		spec, err := json.Marshal(j.spec)
		if err != nil {
			return nil, err
		}
		res, err := json.Marshal(j.result)
		if err != nil {
			return nil, err
		}
		hash, _ := engine.SpecHash(j.spec)
		id := fmt.Sprintf("job-%06d", k+1)
		if err := timed(func() error { return st.Submitted(id, hash, spec) }); err != nil {
			return nil, err
		}
		if err := timed(func() error { return st.Running(id) }); err != nil {
			return nil, err
		}
		if err := timed(func() error { return st.Done(id, hash, res) }); err != nil {
			return nil, err
		}
	}
	return us, nil
}

// isSerialTag reports whether a span tag belongs to the serial pass.
func isSerialTag(tag int) bool { return tag >= 2*serialSeq0 && tag < replayTag0 }

// layerRows computes the per-layer metrics. Pipeline layers come from
// the replay; engine and process counters from the traced timed phase;
// the service layers from the serial pass, and on the service workload
// its ledger counters from the timed phase itself.
func layerRows(w *workload, p *phase, sp *serialStats, rp *replay, spans []span, appendUS []float64) ([]row, error) {
	lat, _, queue := p.fresh()
	jobs := float64(len(lat))
	queueP95, beyond, err := percentile(queue, 95)
	if err != nil {
		return nil, fmt.Errorf("engine.queue_wait_p95_ms: %w", err)
	}

	records, dedupRate := float64(sp.counters.walRecords)/float64(len(sp.outcomes)), float64(sp.counters.dedupServed)/float64(len(sp.outcomes))
	resubs := len(sp.outcomes)
	if w.service {
		resubs = 0
		for _, o := range p.outcomes {
			if o.resubmitted {
				resubs++
			}
		}
		records = float64(p.counters.walRecords) / jobs
		dedupRate = float64(p.counters.dedupServed) / float64(resubs)
	}

	var submit, dedupHandler, fleetSelf, clientSelf, clientDedup []float64
	self := selfTimes(spans)
	for i, s := range spans {
		if !isSerialTag(s.Job) {
			continue
		}
		resub := s.Job%2 == 1
		switch {
		case s.Name == "mapdsrv POST" && !resub:
			submit = append(submit, ms(s.dur()))
		case s.Name == "mapdsrv POST":
			dedupHandler = append(dedupHandler, ms(s.dur()))
		case strings.HasPrefix(s.Name, "fleet "):
			fleetSelf = append(fleetSelf, self[i])
		case strings.HasPrefix(s.Name, "mapclient "):
			clientSelf = append(clientSelf, self[i])
			if resub {
				clientDedup = append(clientDedup, ms(s.dur()))
			}
		}
	}
	for name, xs := range map[string][]float64{
		"mapdsrv POST (fresh)": submit, "mapdsrv POST (resubmission)": dedupHandler,
		"fleet": fleetSelf, "mapclient": clientSelf,
	} {
		if len(xs) == 0 {
			return nil, fmt.Errorf("the serial pass recorded no %s spans", name)
		}
	}
	generate := append(append([]float64(nil), rp.generate...), w.generateMS...)

	n := func(xs []float64) int { return len(xs) }
	return []row{
		{name: "core.enhance_ms", value: median(rp.enhance), unit: "ms", samples: n(rp.enhance)},
		{name: "core.ns_per_hierarchy", value: median(rp.nsPerH), unit: "ns", samples: n(rp.nsPerH)},
		{name: "core.kept_ratio", value: float64(rp.kept) / float64(rp.hierarchies), unit: "ratio", samples: rp.jobs},
		{name: "core.swaps_per_job", value: float64(rp.swaps) / float64(rp.jobs), unit: "count", samples: rp.jobs},
		{name: "partition.partition_ms", value: median(rp.part), unit: "ms", samples: n(rp.part)},
		{name: "mapping.map_ms", value: median(rp.mapMS), unit: "ms", samples: n(rp.mapMS)},
		{name: "mapping.drb_ms", value: median(rp.drb), unit: "ms", samples: n(rp.drb)},
		{name: "mapping.eval_ms", value: median(rp.eval), unit: "ms", samples: n(rp.eval)},
		{name: "netgen.generate_ms", value: median(generate), unit: "ms", samples: n(generate)},
		{name: "topology.build_ms", value: median(rp.topoBuild), unit: "ms", samples: n(rp.topoBuild)},
		{name: "engine.queue_wait_ms", value: median(queue), unit: "ms", samples: n(queue)},
		{name: "engine.queue_wait_p95_ms", value: queueP95, unit: "ms", samples: n(queue), note: fmt.Sprintf("%d beyond", beyond)},
		{name: "engine.artifact_hit_rate", value: p.counters.hitRate(), unit: "ratio", samples: int(p.counters.artHits + p.counters.artMisses + p.counters.artWaits)},
		{name: "engine.wide_grants_per_job", value: float64(p.counters.wideGrants) / jobs, unit: "count", samples: len(lat)},
		{name: "jobstore.records_per_job", value: records, unit: "count", samples: len(lat)},
		{name: "jobstore.append_us", value: median(appendUS), unit: "us", samples: n(appendUS)},
		{name: "jobstore.dedup_hit_rate", value: dedupRate, unit: "ratio", samples: resubs},
		{name: "mapdsrv.submit_ms", value: median(submit), unit: "ms", samples: n(submit)},
		{name: "mapdsrv.dedup_ms", value: median(dedupHandler), unit: "ms", samples: n(dedupHandler)},
		{name: "fleet.self_ms", value: median(fleetSelf), unit: "ms", samples: n(fleetSelf)},
		{name: "mapclient.self_ms", value: median(clientSelf), unit: "ms", samples: n(clientSelf)},
		{name: "mapclient.dedup_ms", value: median(clientDedup), unit: "ms", samples: n(clientDedup)},
		{name: "mapclient.retries", value: float64(sp.retries), unit: "count", samples: 1},
		{name: "fleet.failovers", value: float64(sp.failover), unit: "count", samples: 1},
		{name: "mapdsrv.shed", value: float64(sp.shed), unit: "count", samples: 1},
		{name: "process.alloc_mb_per_job", value: p.allocMB / jobs, unit: "MiB", samples: len(lat)},
		{name: "process.gc_per_job", value: float64(p.numGC) / jobs, unit: "count", samples: len(lat)},
		{name: "process.cpu_ms_per_job", value: ms(int64(p.cpu)) / jobs, unit: "ms", samples: len(lat)},
	}, nil
}

// printOverhead prints the traced phase's end-to-end metrics beside the
// untraced phase's, with the relative change tracing caused.
func printOverhead(plain, traced []row) {
	fmt.Println("# tracing overhead: untraced vs traced timed phase")
	for i, r := range plain {
		t := traced[i]
		fmt.Printf("%-28s %14.4f %14.4f %-8s %+7.2f%%\n", r.name, r.value, t.value, r.unit, 100*(t.value-r.value)/r.value)
	}
}

// printSelfTimes prints each span name's median self time over the
// serial pass and the replay, the phases whose every span is attributed
// to its job (in the concurrent timed phase handler spans are not).
func printSelfTimes(spans []span) {
	var attributed []span
	for _, s := range spans {
		if isSerialTag(s.Job) || s.Job >= replayTag0 {
			attributed = append(attributed, s)
		}
	}
	nest(attributed)
	byName := make(map[string][]float64)
	for i, self := range selfTimes(attributed) {
		byName[attributed[i].Name] = append(byName[attributed[i].Name], self)
	}
	fmt.Println("# self time per layer call (median ms)")
	for _, name := range sortedKeys(byName) {
		fmt.Printf("%-28s %14.4f ms       n=%d\n", name, median(byName[name]), len(byName[name]))
	}
}
