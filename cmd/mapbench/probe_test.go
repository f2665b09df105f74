package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// small shrinks a probe's job set so the race detector can afford it:
// the same jobs at NH 2 on graphs of at most a tenth of full scale.
func small(p probe) probe {
	jobs := p.jobs
	p.jobs = func(seed int64) []engine.JobSpec {
		specs := jobs(seed)
		for i := range specs {
			specs[i].NumHierarchies = 2
			specs[i].Graph.Scale = min(specs[i].Graph.Scale, 0.1)
		}
		return specs
	}
	return p
}

// TestProbes runs every mapbench probe through runProbe, the entry
// point -wide, -warm, -restart and -fleet use. A probe fails inside
// runProbe unless its perturbed results equal the reference, so a pass
// is the equivalence proof; here the perf.* counts are checked too.
func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes run each job set several times")
	}
	columns := map[string]func(p bench.RunPerf, jobs int) bool{
		"wide":    func(p bench.RunPerf, _ int) bool { return p.WideWidth >= 2 },
		"warm":    func(p bench.RunPerf, _ int) bool { return p.DiskHitRate > 0 },
		"restart": func(p bench.RunPerf, jobs int) bool { return p.JobsRecovered >= 1 && p.DedupServed == int64(jobs) },
		"fleet":   func(p bench.RunPerf, _ int) bool { return p.Failovers >= 1 },
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			p := small(p)
			var perf bench.RunPerf
			var lines []string
			if err := runProbe(p, 1, 2, &perf, func(line string) { lines = append(lines, line) }); err != nil {
				t.Fatal(err)
			}
			if !columns[p.name](perf, len(p.jobs(1))) {
				t.Errorf("implausible perf counts %+v", perf)
			}
			if len(lines) != 1 || !strings.HasPrefix(lines[0], p.name+" probe: ") {
				t.Errorf("progress lines %q, want one result line", lines)
			}
		})
	}
}

// TestProbeRejectsDivergence: a perturbation whose results differ from
// the reference in one job fails the probe, and the error names that
// job.
func TestProbeRejectsDivergence(t *testing.T) {
	p := small(probe{
		name: "tampered",
		jobs: func(seed int64) []engine.JobSpec { return gnutellaJobs(seed)[:3] },
		perturb: func(r *probeRun) (string, error) {
			eng := engine.New(engine.Options{Workers: 1})
			defer eng.Close()
			got, err := runJobs(eng, r.specs)
			if err != nil {
				return "", err
			}
			if err := r.check("untouched run", got); err != nil {
				return "", err
			}
			got[1].CocoAfter++
			return "", r.check("tampered run", got)
		},
	})
	err := runProbe(p, 1, 1, &bench.RunPerf{}, nil)
	if err == nil {
		t.Fatal("a changed result passed the probe")
	}
	for _, want := range []string{"tampered probe: tampered run: job 1 (", "seed 2)", "differs from the reference"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestWideProbeRejectsNarrowJob: a job too small to fan out — two PEs,
// so the partition has no recursion to offload, and one hierarchy, so
// TIMER has no trial to speculate — stays at width 1 even when forced
// wide. Its result equals the reference, yet the wide probe must fail,
// because no helper ever ran.
func TestWideProbeRejectsNarrowJob(t *testing.T) {
	p := probe{
		name: "wide",
		jobs: func(seed int64) []engine.JobSpec {
			return []engine.JobSpec{{
				Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.05},
				Topology:       "grid:2x1",
				Case:           engine.C2Identity,
				Seed:           seed,
				NumHierarchies: 1,
			}}
		},
		perturb: runWide,
	}
	var perf bench.RunPerf
	err := runProbe(p, 1, 2, &perf, nil)
	if err == nil || !strings.Contains(err.Error(), "wide probe: wide run: the job reached width 1") {
		t.Fatalf("error %v, want the wide probe refused for width 1", err)
	}
	if perf.WideWidth != 0 {
		t.Errorf("a refused probe recorded wide_width %d", perf.WideWidth)
	}
}
