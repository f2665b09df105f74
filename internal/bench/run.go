package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/netgen"
)

// RunOptions tunes a matrix run without changing what is measured.
type RunOptions struct {
	// Workers sizes the engine's worker pool (default GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives one line per completed scenario.
	Progress func(line string)
}

// Run expands the matrix and executes every cell on the concurrent
// mapping engine: each scenario is one engine batch (Engine.SubmitBatch)
// of its repetitions, each network is generated exactly once and shared
// read-only across its jobs, and all jobs flow through one worker pool
// so the matrix saturates the machine. Individual job failures mark
// their scenario failed without aborting the run.
func Run(spec Spec, opt RunOptions) (*Results, error) {
	spec = spec.withDefaults()
	scenarios, skipped, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	progress := opt.Progress
	if progress == nil {
		progress = func(string) {}
	}

	// One generated instance per (network, scale), shared by every
	// scenario that names it: repetitions and cases must vary only the
	// pipeline seed, never the graph. Extra cells may run a network at a
	// different scale than the cross product, hence the composite key.
	// Generation runs concurrently — each instance depends only on
	// (name, scale, seed), so the paper-scale networks don't serialize
	// the whole startup — and stays deterministic.
	instKey := func(sc Scenario) string { return fmt.Sprintf("%s@%g", sc.Network, sc.Scale) }
	slots := make(map[string]**graph.Graph, len(spec.Networks))
	var wg sync.WaitGroup
	for _, sc := range scenarios {
		if sc.File != "" {
			continue // dataset cells ingest through the engine below
		}
		if _, ok := slots[instKey(sc)]; ok {
			continue
		}
		net, err := netgen.ByName(sc.Network)
		if err != nil {
			wg.Wait()
			return nil, fmt.Errorf("bench: %w", err)
		}
		slot := new(*graph.Graph)
		slots[instKey(sc)] = slot
		wg.Add(1)
		go func(scale float64) {
			defer wg.Done()
			*slot = net.Generate(scale, spec.Seed)
		}(sc.Scale)
	}
	wg.Wait()
	graphs := make(map[string]*graph.Graph, len(slots))
	for key, slot := range slots {
		graphs[key] = *slot
	}

	total := len(scenarios) * spec.Reps
	eng := engine.New(engine.Options{
		Workers:    opt.Workers,
		QueueCap:   total,
		RetainJobs: total + 1,
	})
	defer eng.Close()

	// Ingest each dataset file once through the engine's registry; its
	// scenarios then run by reference like any mapd client's. Cells whose
	// loaded graph does not outsize the topology are dropped here (the
	// generated cells had the same check at expansion, where the size was
	// predictable without IO).
	fileInfos := make(map[string]engine.GraphInfo)
	if kept, dropped, err := ingestFileCells(eng, scenarios, fileInfos); err != nil {
		return nil, err
	} else {
		scenarios = kept
		skipped += dropped
		total = len(scenarios) * spec.Reps
	}

	// Allocation counters bracket the whole run: with the scenario graphs
	// already generated above, the delta is dominated by the pipeline
	// work the jobs perform, giving the allocs/op and bytes/op columns
	// of the perf trajectory.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	start := time.Now()
	ids := make([]string, 0, total)
	for _, sc := range scenarios {
		// A generated network rides pinned: SubmitBatch keeps G as is,
		// so a paper-scale graph larger than the artifact cache's byte
		// bound is not evicted and generated again. A dataset ref is
		// resolved once per batch.
		gs := engine.GraphSpec{Network: sc.Network, Scale: sc.Scale, Seed: spec.Seed, G: graphs[instKey(sc)]}
		if sc.File != "" {
			gs = engine.GraphSpec{Ref: fileInfos[sc.File].Ref}
		}
		batchIDs, err := eng.SubmitBatch(spec.batch(sc, gs))
		ids = append(ids, batchIDs...)
		if err != nil {
			// Drain what was already enqueued before failing: those
			// jobs run regardless.
			for _, id := range ids {
				eng.Wait(id)
			}
			return nil, fmt.Errorf("bench: submitting %s: %w", sc.Name, err)
		}
	}

	res := &Results{
		Matrix:    spec.Name,
		Spec:      spec,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scenarios: make([]ScenarioResult, 0, len(scenarios)),
	}
	var cocoQs, cutQs []float64
	caseQs := make(map[string][]float64)
	failed := 0
	nh := spec.NumHierarchies
	if nh <= 0 {
		nh = core.DefaultNumHierarchies // the engine's JobSpec default
	}
	for si, sc := range scenarios {
		reps := make([]*engine.JobResult, 0, spec.Reps)
		var firstErr error
		for rep := 0; rep < spec.Reps; rep++ {
			job, err := eng.Wait(ids[si*spec.Reps+rep])
			switch {
			case err != nil:
				if firstErr == nil {
					firstErr = err
				}
			case job.Status != engine.StatusDone:
				if firstErr == nil {
					firstErr = fmt.Errorf("job %s: %s", job.ID, job.Error)
				}
			default:
				reps = append(reps, job.Result)
			}
		}
		sr := ScenarioResult{Scenario: sc, Reps: spec.Reps}
		if firstErr != nil {
			sr.Error = firstErr.Error()
			failed++
			progress(fmt.Sprintf("FAIL %s: %v", sc.Name, firstErr))
		} else {
			fillScenario(&sr, reps, nh)
			if sc.File != "" {
				// The one-time ingest behind the scenario, from the
				// engine's registration: wall time and the loader's
				// peak-footprint model (the peak-RSS estimate).
				ist := fileInfos[sc.File].Stats
				sr.Perf.IngestSeconds = ist.LoadSeconds
				sr.Perf.IngestPeakBytes = ist.PeakBytes
			}
			cocoQs = append(cocoQs, sr.Quality.CocoQuotient.Mean)
			cutQs = append(cutQs, sr.Quality.CutQuotient.Mean)
			cn := sc.Case.String()
			caseQs[cn] = append(caseQs[cn], sr.Quality.CocoQuotient.Mean)
			progress(fmt.Sprintf("done %s: qCoco mean %.4f (%d reps, %.2fs)",
				sc.Name, sr.Quality.CocoQuotient.Mean, spec.Reps, sr.Perf.JobSeconds.Mean))
		}
		res.Scenarios = append(res.Scenarios, sr)
	}
	wall := time.Since(start).Seconds()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	// Partition-reuse split across all finished jobs: a job either ran
	// the multilevel partitioner or was served from the artifact cache
	// (DRB jobs have no partition stage and count in neither column).
	partComputed, partReused := 0, 0
	for i := range res.Scenarios {
		sr := &res.Scenarios[i]
		if sr.Perf == nil {
			continue
		}
		partComputed += sr.Perf.PartitionsComputed
		partReused += sr.Perf.PartitionsReused
	}

	res.Summary = Summary{
		Scenarios:       len(scenarios),
		Skipped:         skipped,
		Failed:          failed,
		Jobs:            total,
		GeoCocoQuotient: geoMeanOrZero(cocoQs),
		GeoCutQuotient:  geoMeanOrZero(cutQs),
	}
	if len(caseQs) > 0 {
		res.Summary.CaseGeoCocoQuotient = make(map[string]float64, len(caseQs))
		for c, qs := range caseQs {
			res.Summary.CaseGeoCocoQuotient[c] = geoMeanOrZero(qs)
		}
	}
	res.Perf = &RunPerf{
		WallSeconds:        wall,
		JobsPerSec:         float64(total) / wall,
		Workers:            eng.Workers(),
		NsPerJob:           wall * 1e9 / float64(total),
		AllocsPerJob:       float64(memAfter.Mallocs-memBefore.Mallocs) / float64(total),
		BytesPerJob:        float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(total),
		PartitionsComputed: partComputed,
		PartitionsReused:   partReused,
	}
	if n := partComputed + partReused; n > 0 {
		res.Perf.ArtifactHitRate = float64(partReused) / float64(n)
	}
	return res, nil
}

// ingestFileCells loads every distinct dataset file behind the
// scenarios through the engine's ingest registry, records the
// registrations in infos (keyed by path), and returns the scenarios
// that survive the size check (graph strictly larger than the
// topology's PE count) plus the number dropped. A file that exists but
// fails to parse fails the run: unlike an absent dataset, a corrupt one
// is an error the operator must see.
func ingestFileCells(eng *engine.Engine, scenarios []Scenario, infos map[string]engine.GraphInfo) ([]Scenario, int, error) {
	kept := scenarios[:0]
	dropped := 0
	for _, sc := range scenarios {
		if sc.File == "" {
			kept = append(kept, sc)
			continue
		}
		info, ok := infos[sc.File]
		if !ok {
			var err error
			info, err = eng.IngestPath(sc.File, ingest.Options{LargestComponent: sc.FileLCC})
			if err != nil {
				return nil, 0, fmt.Errorf("bench: ingesting %s: %w", sc.File, err)
			}
			infos[sc.File] = info
		}
		topo, err := eng.Topology(sc.Topology)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: %w", err)
		}
		if info.N <= topo.P() {
			dropped++
			continue
		}
		kept = append(kept, sc)
	}
	if len(kept) == 0 {
		return nil, 0, fmt.Errorf("bench: no runnable scenarios remain (%d file cells too small)", dropped)
	}
	return kept, dropped, nil
}

// fillScenario aggregates the repetitions of one scenario into
// min/mean/max triples. nh is the effective NumHierarchies of every
// job, the op count behind the ns/op column.
func fillScenario(sr *ScenarioResult, reps []*engine.JobResult, nh int) {
	first := reps[0]
	sr.PEs, sr.GraphN, sr.GraphM = first.PEs, first.GraphN, first.GraphM

	var cocoB, cocoA, cutB, cutA []int64
	var dilB, dilA, imbB, imbA, kept, swaps, baseS, timerS, jobS []float64
	stageS := make(map[string][]float64)
	computed, reused := 0, 0
	for _, r := range reps {
		// Only a rep that ran its base stage timed it: a partition served
		// from the artifact cache (or coalesced onto another job's
		// in-flight build) measured a lookup, not a partitioning.
		for _, st := range r.Stages {
			switch {
			case st.Name == "partition" && r.PartitionReused:
				reused++
			case st.Name == "partition":
				computed++
				baseS = append(baseS, r.BaseSeconds)
			case st.Name == "drb":
				baseS = append(baseS, r.BaseSeconds)
			}
		}
		cocoB = append(cocoB, r.CocoBefore)
		cocoA = append(cocoA, r.CocoAfter)
		cutB = append(cutB, r.CutBefore)
		cutA = append(cutA, r.CutAfter)
		dilB = append(dilB, float64(r.DilationBefore))
		dilA = append(dilA, float64(r.DilationAfter))
		imbB = append(imbB, r.ImbalanceBefore)
		imbA = append(imbA, r.ImbalanceAfter)
		kept = append(kept, float64(r.HierarchiesKept))
		swaps = append(swaps, float64(r.SwapsApplied))
		timerS = append(timerS, r.TimerSeconds)
		var sum float64
		for _, st := range r.Stages {
			stageS[st.Name] = append(stageS[st.Name], st.Seconds)
			sum += st.Seconds
		}
		jobS = append(jobS, sum)
	}

	q := &Quality{
		CocoBefore:      metrics.SummarizeInts(cocoB),
		CocoAfter:       metrics.SummarizeInts(cocoA),
		CutBefore:       metrics.SummarizeInts(cutB),
		CutAfter:        metrics.SummarizeInts(cutA),
		DilationBefore:  metrics.Summarize(dilB),
		DilationAfter:   metrics.Summarize(dilA),
		ImbalanceBefore: metrics.Summarize(imbB),
		ImbalanceAfter:  metrics.Summarize(imbA),
		HierarchiesKept: metrics.Summarize(kept),
		SwapsApplied:    metrics.Summarize(swaps),
	}
	q.CocoQuotient = metrics.Quotient(q.CocoAfter, q.CocoBefore)
	q.CutQuotient = metrics.Quotient(q.CutAfter, q.CutBefore)
	sr.Quality = q

	nsPerH := make([]float64, len(timerS))
	for i, s := range timerS {
		nsPerH[i] = s * 1e9 / float64(nh)
	}
	baseNs := make([]float64, len(baseS))
	for i, s := range baseS {
		baseNs[i] = s * 1e9
	}
	p := &Perf{
		BaseSeconds:         metrics.Summarize(baseS),
		BaseNsPerJob:        metrics.Summarize(baseNs),
		TimerSeconds:        metrics.Summarize(timerS),
		TimerNsPerHierarchy: metrics.Summarize(nsPerH),
		JobSeconds:          metrics.Summarize(jobS),
		PartitionsComputed:  computed,
		PartitionsReused:    reused,
	}
	if len(stageS) > 0 {
		p.StageSeconds = make(map[string]metrics.Triple, len(stageS))
		for name, xs := range stageS {
			p.StageSeconds[name] = metrics.Summarize(xs)
		}
	}
	sr.Perf = p
}

// geoMeanOrZero is the geometric mean of the positive values, or 0 when
// there are none (every scenario failed, say): metrics.GeoMean's NaN
// would make the results unencodable as JSON and mask the per-scenario
// errors that are the actual signal.
func geoMeanOrZero(xs []float64) float64 {
	pos := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	return metrics.GeoMean(pos)
}
