package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/engine"
)

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// Nearest rank: p95 of 199 samples is the 190th, leaving 9 beyond.
	if _, beyond, err := percentile(samples(199), 95); err == nil || beyond != 9 {
		t.Fatalf("p95 of 199 samples: beyond %d, err %v; want a refusal with 9 beyond", beyond, err)
	}
	v, beyond, err := percentile(samples(200), 95)
	if err != nil || beyond != 10 || v != 190 {
		t.Fatalf("p95 of 200 samples = %v (%d beyond, err %v); want 190 with 10 beyond", v, beyond, err)
	}
	if v, _, err := percentile(samples(3), 50); err != nil || v != 2 {
		t.Fatalf("median of 3 samples = %v, %v; want 2", v, err)
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples did not fail")
	}
}

func TestSelfTimeSubtractsOnlyCoveredPart(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},   // overlaps the first: [10,50] covered once
		{Start: 90, End: 120},  // only [90,100] lies inside the parent
		{Start: 150, End: 160}, // outside entirely
	}
	if got := selfTime(parent, children); got != 50 {
		t.Fatalf("self time = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestNestByTime(t *testing.T) {
	spans := []span{
		{Name: "mapclient POST", Start: 0, End: 100, Job: 4},
		{Name: "fleet POST", Start: 10, End: 90, Job: 4},
		{Name: "mapdsrv POST", Start: 20, End: 80, Job: 4},
		{Name: "mapclient POST", Start: 5, End: 50, Job: 5},
		{Name: "mapdsrv POST", Start: 30, End: 40, Job: -1},
	}
	nest(spans)
	want := []int{-1, 0, 1, -1, -1}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s, job %d): parent %d, want %d", i, s.Name, s.Job, s.Parent, want[i])
		}
	}
	if got := selfTimes(spans)[1]; got != ms(20) {
		t.Errorf("fleet self time = %v, want %v", got, ms(20))
	}
}

// jobList renders a workload's warm-up and first n jobs as JSON, inline
// edge lists included.
func jobList(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := append([]engine.JobSpec(nil), w.warmup...)
	for i := 0; i < n; i++ {
		specs = append(specs, w.spec(i))
	}
	b, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJobListsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b := jobList(t, name, 1, 120), jobList(t, name, 1, 120)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different job lists", name)
		}
		if bytes.Equal(a, jobList(t, name, 2, 120)) {
			t.Errorf("%s: seeds 1 and 2 gave the same job list", name)
		}
	}
	// The inline graphs themselves follow the seed, not just job seeds.
	w1, _ := newWorkload("service", 1, 2)
	w2, _ := newWorkload("service", 2, 2)
	seed1 := map[string]bool{}
	for i := 0; i < 4; i++ {
		if n := len(w1.spec(i).Graph.Edges); n < 1000 {
			t.Fatalf("service job %d carries only %d inline edges", i, n)
		}
		e, _ := json.Marshal(w1.spec(i).Graph.Edges)
		seed1[string(e)] = true
	}
	for i := 0; i < 4; i++ {
		if e, _ := json.Marshal(w2.spec(i).Graph.Edges); seed1[string(e)] {
			t.Errorf("seed 2 job %d carries one of seed 1's edge lists", i)
		}
	}
}

func TestJobListsAreStratified(t *testing.T) {
	w, err := newWorkload("timer-heavy", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 60 // 4 networks × 5 topologies × 3 cases
	for block := 0; block < 3; block++ {
		seen := map[string]bool{}
		for i := block * cells; i < (block+1)*cells; i++ {
			s := w.spec(i)
			seen[s.Graph.Network+s.Topology+s.Case.String()] = true
		}
		if len(seen) != cells {
			t.Errorf("block %d covers %d of %d cells", block, len(seen), cells)
		}
	}
}

func TestReplayMatchesEngineRun(t *testing.T) {
	ref := engine.New(engine.Options{Workers: 1})
	defer ref.Close()
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		spec := w.spec(0)
		want, err := ref.Run(spec)
		if err != nil {
			t.Fatalf("%s: Engine.Run: %v", name, err)
		}
		rp := newReplay(nil)
		got, err := rp.job(spec, 0)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if !reflect.DeepEqual(*got, want.StripPerf()) {
			t.Errorf("%s: replay = %+v\nEngine.Run = %+v", name, *got, want.StripPerf())
		}
		if len(rp.enhance) != 1 || len(rp.drb) != 1 || len(rp.eval) != 1 {
			t.Errorf("%s: replay timed %d Enhance, %d DRB and %d eval calls; want 1 each", name, len(rp.enhance), len(rp.drb), len(rp.eval))
		}
	}
}
