package fleet_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
)

// TestFleetReplicaHelper is the victim process of the chaos test
// below: a full mapd replica (engine + mapdsrv handler) on a random
// port, its address published through a port file, running until the
// parent SIGKILLs it. Not a test on its own — without the env guard it
// skips immediately.
func TestFleetReplicaHelper(t *testing.T) {
	dir := os.Getenv("FLEET_REPLICA_DIR")
	portFile := os.Getenv("FLEET_REPLICA_PORTFILE")
	if os.Getenv("FLEET_REPLICA_HELPER") != "1" || dir == "" || portFile == "" {
		t.Skip("helper process of TestFleetChaosKillMidBatch")
	}
	addr := os.Getenv("FLEET_REPLICA_ADDR")
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ { // a restart can race the dying listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("helper listen %s: %v", addr, err)
	}
	eng := engine.New(engine.Options{
		Workers:  2,
		CacheDir: os.Getenv("FLEET_REPLICA_CACHE"), // shared across replicas
		JobDir:   filepath.Join(dir, "jobs"),       // exclusive to this replica
	})
	srv := &http.Server{Handler: mapdsrv.New(eng, mapdsrv.Config{})}
	go srv.Serve(ln)

	// Publish the bound address atomically: write-then-rename, so the
	// parent never reads a half-written file.
	tmp := portFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, portFile); err != nil {
		t.Fatal(err)
	}
	// Never exit cleanly: the parent's SIGKILL is the only way out.
	select {}
}

// spawnReplica starts a helper replica subprocess and returns it with
// its published base URL.
func spawnReplica(t *testing.T, dir, cacheDir, addr string) (*exec.Cmd, string) {
	t.Helper()
	portFile := filepath.Join(dir, "port")
	os.Remove(portFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetReplicaHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"FLEET_REPLICA_HELPER=1",
		"FLEET_REPLICA_DIR="+dir,
		"FLEET_REPLICA_PORTFILE="+portFile,
		"FLEET_REPLICA_CACHE="+cacheDir,
		"FLEET_REPLICA_ADDR="+addr,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			return cmd, string(b)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("helper replica never published its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetChaosKillMidBatch is the PR's headline robustness proof,
// in-process end of it: three real replica subprocesses sharing a
// cache directory behind a router, one SIGKILLed while the batch it
// hosts is mid-flight. The client-driven batch must complete with zero
// visible errors and byte-identical results to an uninterrupted
// single-engine reference; the router must record the failover; and
// after the victim restarts at the same address, its breaker must
// reclose.
func TestFleetChaosKillMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	base := t.TempDir()
	cacheDir := filepath.Join(base, "cache")
	var cmds []*exec.Cmd
	var urls []string
	var dirs []string
	for i := 0; i < 3; i++ {
		dir := filepath.Join(base, fmt.Sprintf("replica%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd, url := spawnReplica(t, dir, cacheDir, "")
		cmds = append(cmds, cmd)
		urls = append(urls, url)
		dirs = append(dirs, dir)
	}

	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	batch := engine.BatchSpec{
		Graphs:         []engine.GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}},
		Topologies:     []string{"grid:4x4", "hypercube:4"},
		Reps:           2,
		Seed:           13,
		NumHierarchies: 80, // slow enough that the kill lands mid-flight
	}

	// The victim is the home replica of the batch's first spec, so the
	// kill is guaranteed to orphan at least one placement.
	specs, err := engine.ExpandBatch(batch, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := engine.SpecHash(specs[0])
	if !ok {
		t.Fatal("spec has no hash")
	}
	home := homeReplica(rt, key)
	victimIdx := -1
	for i, u := range urls {
		if u == home.Name {
			victimIdx = i
		}
	}

	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 20 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	type batchOut struct {
		jobs []engine.Job
		err  error
	}
	outCh := make(chan batchOut, 1)
	go func() {
		jobs, err := c.RunBatch(ctx, batch)
		outCh <- batchOut{jobs, err}
	}()

	// Kill the victim the moment it has work in flight.
	deadline := time.Now().Add(30 * time.Second)
	for home.SubmitsForTest() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim replica never received a placement")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmds[victimIdx].Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmds[victimIdx].Wait()

	out := <-outCh
	if out.err != nil {
		t.Fatalf("client saw an error through the kill: %v", out.err)
	}
	for i, j := range out.jobs {
		if j.Status != engine.StatusDone {
			t.Fatalf("batch job %d: %s (%s)", i, j.Status, j.Error)
		}
	}
	if n := rt.Failovers(); n < 1 {
		t.Errorf("router recorded %d failovers, want ≥ 1", n)
	}

	// Byte-identical to an uninterrupted single-engine reference.
	ref := engine.New(engine.Options{Workers: 2})
	defer ref.Close()
	want, err := ref.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if a, b := out.jobs[i].Result.StripPerf(), want[i].Result.StripPerf(); !reflect.DeepEqual(a, b) {
			t.Errorf("batch job %d diverged from reference:\n%+v\nvs\n%+v", i, a, b)
		}
	}

	// Restart the victim at its old address, reusing its job ledger
	// (one live replica per job-dir — the restart is that replica's
	// successor, not a second tenant). The prober's first green probe
	// must reclose the breaker.
	victimAddr := urls[victimIdx][len("http://"):]
	spawnReplica(t, dirs[victimIdx], cacheDir, victimAddr)
	deadline = time.Now().Add(30 * time.Second)
	for {
		state, _, _ := home.BreakerForTest()
		if state == "closed" && home.ReadyForTest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim breaker stuck %s after restart", state)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, _, trips := home.BreakerForTest(); trips < 1 {
		t.Errorf("victim breaker never tripped across the kill (trips = %d)", trips)
	}
}
