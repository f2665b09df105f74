package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
)

// A probe proves that one serving feature took effect and left every
// mapping unchanged. It times nothing: speed claims come from
// perfbench's repeated runs. runProbe owns the steps all probes share,
// so a probe is only its job set and its perturbation: what it runs,
// which checks of its own it makes and which perf.* counts it writes.
type probe struct {
	name  string // the mapbench flag that selects the probe
	usage string
	// jobs builds the job set; job seeds start at seed.
	jobs func(seed int64) []engine.JobSpec
	// perturb runs the job set under the perturbation, hands every
	// result set it produces to r.check, writes the probe's perf.*
	// counts and returns a one-line summary.
	perturb func(r *probeRun) (string, error)
}

// probes are mapbench's probes, in the order they run.
var probes = []probe{
	{"wide", "also run the wide-mode probe (one big job run wide on an idle pool; records perf.wide_width)",
		wideJobs, runWide},
	{"warm", "also run the warm-restart probe (same jobs, cold vs restarted engine on a shared cache dir; records perf.disk_hit_rate)",
		warmJobs, runWarm},
	{"restart", "also run the crash-restart probe (engine drained mid-batch, recovered from its job ledger; records perf.jobs_recovered and perf.dedup_served)",
		gnutellaJobs, runRestart},
	{"fleet", "also run the fleet probe (jobs through maprouter over 3 replicas, one killed mid-batch; records perf.failovers)",
		gnutellaJobs, runFleet},
}

// probeRun is what the harness hands a perturbation.
type probeRun struct {
	specs   []engine.JobSpec
	want    []engine.JobResult // the reference results, perf fields stripped
	workers int                // engine pool size; 0 means GOMAXPROCS
	dir     string             // a fresh temporary directory, removed after the probe
	perf    *bench.RunPerf
	checked int // result sets that matched the reference
}

// runProbe runs one probe: it builds the job set from seed (0 means 1),
// computes the reference with Engine.Run on a fresh default engine,
// runs the perturbation, and fails unless every result set the
// perturbation produced equals the reference after JobResult.StripPerf.
func runProbe(p probe, seed int64, workers int, perf *bench.RunPerf, progress func(string)) error {
	if seed == 0 {
		seed = 1
	}
	r := &probeRun{specs: p.jobs(seed), workers: workers, perf: perf}
	ref := engine.New(engine.Options{Workers: 1})
	for _, spec := range r.specs {
		res, err := ref.Run(spec)
		if err != nil {
			ref.Close()
			return fmt.Errorf("%s probe: reference run: %w", p.name, err)
		}
		r.want = append(r.want, res.StripPerf())
	}
	ref.Close()

	dir, err := os.MkdirTemp("", "mapbench-"+p.name+"-*")
	if err != nil {
		return fmt.Errorf("%s probe: %w", p.name, err)
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	summary, err := p.perturb(r)
	if err == nil && r.checked == 0 {
		err = fmt.Errorf("no result set was checked against the reference")
	}
	if err != nil {
		return fmt.Errorf("%s probe: %w", p.name, err)
	}
	if progress != nil {
		progress(fmt.Sprintf("%s probe: %s; %d result sets byte-identical to the reference",
			p.name, summary, r.checked))
	}
	return nil
}

// check fails unless got equals the reference, job by job, after
// JobResult.StripPerf. run names the perturbed run in the error.
func (r *probeRun) check(run string, got []engine.JobResult) error {
	if len(got) != len(r.want) {
		return fmt.Errorf("%s: %d results, want %d", run, len(got), len(r.want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].StripPerf(), r.want[i]) {
			s := r.specs[i]
			return fmt.Errorf("%s: job %d (%s@%g on %s, seed %d) differs from the reference (coco %d, want %d)",
				run, i, s.Graph.Network, s.Graph.Scale, s.Topology, s.Seed, got[i].CocoAfter, r.want[i].CocoAfter)
		}
	}
	r.checked++
	return nil
}

// jobQueue is where a probe submits jobs: an engine, or a fleet through
// its router.
type jobQueue interface {
	Submit(engine.JobSpec) (engine.Job, error)
	Wait(id string) (engine.Job, error)
}

func submitAll(q jobQueue, specs []engine.JobSpec) ([]string, error) {
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, err := q.Submit(spec)
		if err != nil {
			return nil, fmt.Errorf("submit job %d: %w", i, err)
		}
		ids[i] = job.ID
	}
	return ids, nil
}

// waitAll waits for every job in order; a job that does not finish
// done is an error.
func waitAll(q jobQueue, ids []string) ([]engine.JobResult, error) {
	out := make([]engine.JobResult, len(ids))
	for i, id := range ids {
		job, err := q.Wait(id)
		if err != nil {
			return nil, fmt.Errorf("wait %s: %w", id, err)
		}
		if job.Status != engine.StatusDone || job.Result == nil {
			return nil, fmt.Errorf("job %s finished %s: %s", id, job.Status, job.Error)
		}
		out[i] = *job.Result
	}
	return out, nil
}

func runJobs(q jobQueue, specs []engine.JobSpec) ([]engine.JobResult, error) {
	ids, err := submitAll(q, specs)
	if err != nil {
		return nil, err
	}
	return waitAll(q, ids)
}

// wideJobs is one TIMER-dominant job: PGPgiantcompo at full scale, big
// enough that trial evaluation dominates, with NH 128, a long
// all-rejected trial tail after the early accepted trials — the regime
// speculation parallelizes.
func wideJobs(seed int64) []engine.JobSpec {
	return []engine.JobSpec{{
		Graph:          engine.GraphSpec{Network: "PGPgiantcompo", Scale: 1},
		Topology:       "grid:8x8",
		Case:           engine.C2Identity,
		Seed:           seed,
		NumHierarchies: 128,
	}}
}

// runWide submits the job with JobSpec.Wide to a fresh engine and
// fails unless the job reached width 2 or more: a job no helper ever
// joined proves nothing about wide mode. The reference, Engine.Run,
// never widens, so a pass shows that widening changed no byte.
func runWide(r *probeRun) (string, error) {
	eng := engine.New(engine.Options{Workers: r.workers})
	defer eng.Close()
	spec := r.specs[0]
	spec.Wide = true
	got, err := runJobs(eng, []engine.JobSpec{spec})
	if err != nil {
		return "", fmt.Errorf("wide run: %w", err)
	}
	if err := r.check("wide run", got); err != nil {
		return "", err
	}
	if w := got[0].Width; w < 2 {
		return "", fmt.Errorf("wide run: the job reached width %d, want at least 2", w)
	}
	r.perf.WideWidth = got[0].Width
	return fmt.Sprintf("width %d", r.perf.WideWidth), nil
}

// warmJobs is the smoke networks at half scale on two topologies, three
// seeds each: twelve jobs whose graphs and partitions are all distinct
// artifacts. The specs name generated graphs, so netgen and the
// partitioner both go through the artifact cache. NH 6 keeps TIMER
// small next to the cacheable stages, and assignments are included so
// the check compares whole mapping vectors.
func warmJobs(seed int64) []engine.JobSpec {
	var specs []engine.JobSpec
	for _, network := range []string{"p2p-Gnutella", "PGPgiantcompo"} {
		for _, topo := range []string{"grid:8x8", "hypercube:6"} {
			for s := int64(0); s < 3; s++ {
				specs = append(specs, engine.JobSpec{
					Graph:             engine.GraphSpec{Network: network, Scale: 0.5},
					Topology:          topo,
					Case:              engine.C2Identity,
					Seed:              seed + s,
					NumHierarchies:    6,
					IncludeAssignment: true,
				})
			}
		}
	}
	return specs
}

// runWarm runs the job set on a cold engine with an empty cache
// directory, then on a freshly constructed engine on the now populated
// directory: a service restart in miniature, whose memory tiers start
// empty. Each engine is closed before the next starts, so its
// write-through snapshots are on disk.
func runWarm(r *probeRun) (string, error) {
	var disk [2]engine.DiskStats
	for i, run := range []string{"cold run", "warm run"} {
		eng := engine.New(engine.Options{Workers: r.workers, CacheDir: r.dir})
		got, err := runJobs(eng, r.specs)
		st := eng.Stats()
		eng.Close()
		if err != nil {
			return "", fmt.Errorf("%s: %w", run, err)
		}
		if err := r.check(run, got); err != nil {
			return "", err
		}
		if st.Artifacts.Disk == nil {
			return "", fmt.Errorf("%s: the engine has no disk tier", run)
		}
		disk[i] = *st.Artifacts.Disk
	}
	cold, warm := disk[0], disk[1]
	if cold.Writes == 0 {
		return "", fmt.Errorf("cold run persisted no snapshots in %s %s", r.dir, cold.Error)
	}
	if warm.Hits == 0 {
		return "", fmt.Errorf("warm run had zero disk hits (%d misses, %d verify failures): the restart stayed cold",
			warm.Misses, warm.VerifyFailures)
	}
	r.perf.DiskHitRate = warm.HitRate()
	return fmt.Sprintf("warm run's disk hit rate %.0f%% (%d hits, %d misses)",
		100*r.perf.DiskHitRate, warm.Hits, warm.Misses), nil
}

// gnutellaJobs is eight generated-graph jobs with distinct seeds on two
// topologies: distinct ledger entries for the restart probe and
// distinct routing keys for the fleet probe. NH 8 gives each job enough
// work that the drain and the kill land mid-batch.
func gnutellaJobs(seed int64) []engine.JobSpec {
	var specs []engine.JobSpec
	for _, topo := range []string{"grid:8x8", "hypercube:6"} {
		for s := int64(0); s < 4; s++ {
			specs = append(specs, engine.JobSpec{
				Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.25},
				Topology:       topo,
				Case:           engine.C2Identity,
				Seed:           seed + s,
				NumHierarchies: 8,
			})
		}
	}
	return specs
}

// runRestart drains a single-worker engine on a fresh job ledger after
// its first completion, so the tail of the batch is handed back to the
// ledger as interrupted while queued, and recovers the batch with a
// second engine on the same ledger. Then every spec is resubmitted,
// and the ledger must serve each one without recomputing.
func runRestart(r *probeRun) (string, error) {
	eng := engine.New(engine.Options{Workers: 1, JobDir: r.dir})
	defer eng.Close()
	ids, err := submitAll(eng, r.specs)
	if err != nil {
		return "", err
	}
	if _, err := eng.Wait(ids[0]); err != nil {
		return "", fmt.Errorf("wait %s: %w", ids[0], err)
	}
	if err := eng.DrainAndClose(5 * time.Minute); err != nil {
		return "", fmt.Errorf("drain: %w", err)
	}
	interrupted := 0
	for _, id := range ids {
		if job, ok := eng.Get(id); ok && job.Status == engine.StatusInterrupted {
			interrupted++
		}
	}
	if interrupted == 0 {
		return "", fmt.Errorf("the drain interrupted nothing: the batch finished before it")
	}

	rec := engine.New(engine.Options{Workers: r.workers, JobDir: r.dir})
	defer rec.Close()
	if st := rec.Stats().JobStore; st == nil || st.Error != "" || st.JobsRecovered != interrupted {
		return "", fmt.Errorf("recovery engine's ledger %+v, want %d jobs recovered", st, interrupted)
	}
	got, err := waitAll(rec, ids)
	if err != nil {
		return "", fmt.Errorf("recovered run: %w", err)
	}
	if err := r.check("recovered run", got); err != nil {
		return "", err
	}

	served := rec.Stats().JobsServed
	dups, err := runJobs(rec, r.specs)
	if err != nil {
		return "", fmt.Errorf("resubmission: %w", err)
	}
	if err := r.check("resubmission", dups); err != nil {
		return "", err
	}
	st := rec.Stats()
	if st.JobsServed != served {
		return "", fmt.Errorf("resubmission recomputed %d jobs, want 0", st.JobsServed-served)
	}
	r.perf.JobsRecovered = st.JobStore.JobsRecovered
	r.perf.DedupServed = st.JobStore.DedupServed
	return fmt.Sprintf("%d of %d jobs interrupted and recovered, %d duplicates ledger-served (0 recomputes), WAL %d records",
		r.perf.JobsRecovered, len(ids), r.perf.DedupServed, st.JobStore.WALRecords), nil
}

// fleetReplicas sizes the fleet probe's fleet.
const fleetReplicas = 3

// runFleet runs the job set through the router over fleetReplicas
// replicas and kills the first spec's home replica right after
// submission; the router must move that replica's jobs with no
// client-visible error.
func runFleet(r *probeRun) (string, error) {
	f, err := startFleet()
	if err != nil {
		return "", err
	}
	defer f.close()
	key, ok := engine.SpecHash(r.specs[0])
	if !ok {
		return "", fmt.Errorf("job 0 has no spec hash")
	}
	ids, err := submitAll(f, r.specs)
	if err != nil {
		return "", fmt.Errorf("chaos run: %w", err)
	}
	f.kill(f.rt.HomeOf(key))
	got, err := waitAll(f, ids)
	if err != nil {
		return "", fmt.Errorf("chaos run: %w", err)
	}
	if err := r.check("chaos run", got); err != nil {
		return "", err
	}
	if f.rt.Failovers() == 0 {
		return "", fmt.Errorf("chaos run: the kill caused no failover")
	}
	r.perf.Failovers = f.rt.Failovers()
	return fmt.Sprintf("the kill cost %d failovers, %d requeues", r.perf.Failovers, f.rt.Requeues()), nil
}

// probeFleet is an in-process fleet: single-worker replicas serving the
// production handler stack (mapdsrv.New) behind the router, each on a
// real TCP listener so one can be killed mid-batch.
type probeFleet struct {
	engines []*engine.Engine
	servers map[string]*http.Server // by base URL, the router's included
	rt      *fleet.Router
	client  *mapclient.Client
}

func startFleet() (_ *probeFleet, err error) {
	f := &probeFleet{servers: make(map[string]*http.Server)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		eng := engine.New(engine.Options{Workers: 1})
		f.engines = append(f.engines, eng)
		url, err := f.serve(mapdsrv.New(eng, mapdsrv.Config{}))
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}
	if f.rt, err = fleet.NewRouter(fleet.Config{
		Replicas:      urls,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
	}); err != nil {
		return nil, err
	}
	url, err := f.serve(f.rt.Handler())
	if err != nil {
		return nil, err
	}
	f.client = mapclient.New(url, mapclient.Config{AttemptTimeout: 5 * time.Minute})

	// Wait for every replica's first health verdict, so the router places
	// the jobs by their home replicas.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := f.client.Stats(context.Background())
		if err == nil && st["usable"] == float64(fleetReplicas) {
			return f, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d-replica fleet never became usable (stats %v, %v)", fleetReplicas, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (f *probeFleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("fleet listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	f.servers[url] = srv
	return url, nil
}

// kill closes the server at url with every open connection: the
// in-process stand-in for kill -9.
func (f *probeFleet) kill(url string) { f.servers[url].Close() }

func (f *probeFleet) close() {
	for _, srv := range f.servers {
		srv.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, eng := range f.engines {
		eng.Close()
	}
}

func (f *probeFleet) Submit(spec engine.JobSpec) (engine.Job, error) {
	return f.client.SubmitJob(context.Background(), spec)
}

func (f *probeFleet) Wait(id string) (engine.Job, error) {
	return f.client.WaitJob(context.Background(), id)
}
