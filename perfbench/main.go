// Command perfbench is the repository's benchmark. It runs one named
// workload against the system through its public entry points, checks
// the outputs, and prints its metrics; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones (jobs/s, latency,
// set-up time, live heap). With --trace 1 the run also records spans
// around every call into a layer and prints per-layer metrics, each
// layer's self time, and the tracing overhead against an untraced
// phase of the same run. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload service --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one printed metric with the number of samples behind it.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// setupReps is how many times an untraced run sets the system up; it
// reports the median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: timer-heavy, base-heavy or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same jobs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for job ledgers and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	ctx := context.Background()
	h := probeHost(cfg.seed)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.seconds, btoi(cfg.trace))
	if cfg.trace {
		return runTraced(ctx, w, cfg, h)
	}

	sys, setups, err := measureSetup(ctx, w, cfg.workdir, setupReps, nil)
	if err != nil {
		return err
	}
	p := timedPhase(ctx, w, sys, cfg.seconds, nil)
	retries, failovers, shed, ferr := sys.faults(ctx)
	sys.close()
	if ferr != nil {
		return ferr
	}
	rows, err := e2eRows(p, setups)
	if err != nil {
		return err
	}
	checked, bad := check(w, p.outcomes)
	attempted, failed := p.tally()
	failed += len(bad) + int(shed)
	reportErrors(p.outcomes, bad)
	printMeta(h, map[string]any{
		"checked": checked, "retries": retries, "failovers": failovers, "shed": shed,
		"resubmit_p50_ms": resubmitP50(p), "setup_reps_s": setups, "jobs_per_second": p.perSecond(),
	})
	printRows("end-to-end", rows)
	return printReport(failed, attempted, rows)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// e2eRows computes the end-to-end metrics of a timed phase.
func e2eRows(p *phase, setup []float64) ([]row, error) {
	lat, _, _ := p.fresh()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job finished in the timed phase")
	}
	p95, beyond, err := percentile(lat, 95)
	if err != nil {
		return nil, fmt.Errorf("latency_p95_ms: %w; run longer", err)
	}
	return []row{
		{name: "jobs_per_s", value: float64(len(lat)) / p.elapsed.Seconds(), unit: "jobs/s", samples: len(lat)},
		{name: "latency_p50_ms", value: median(lat), unit: "ms", samples: len(lat)},
		{name: "latency_p95_ms", value: p95, unit: "ms", samples: len(lat), note: fmt.Sprintf("%d beyond", beyond)},
		{name: "setup_s", value: median(setup), unit: "s", samples: len(setup)},
		{name: "live_heap_mb", value: p.heapMB, unit: "MiB", samples: 1},
	}, nil
}

// resubmitP50 is the median resubmission latency, 0 without a ledger.
func resubmitP50(p *phase) float64 {
	_, dedup, _ := p.fresh()
	return median(dedup)
}

// reportErrors prints the first few failures to standard error.
func reportErrors(outs []outcome, bad []error) {
	n := 0
	for _, o := range outs {
		if err := o.failure(); err != nil && n < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", o.seq, err)
			n++
		}
	}
	for _, err := range bad {
		if n < 10 {
			fmt.Fprintln(os.Stderr, "perfbench: check:", err)
			n++
		}
	}
}

func printMeta(h host, extra map[string]any) {
	extra["host"] = h
	b, _ := json.Marshal(map[string]any{"meta": extra})
	fmt.Println(string(b))
}

func printRows(title string, rows []row) {
	fmt.Printf("# %s\n", title)
	for _, r := range rows {
		fmt.Printf("%-28s %14.4f %-8s n=%-6d %s\n", r.name, r.value, r.unit, r.samples, r.note)
	}
}

// printReport prints the final JSON line.
func printReport(failed, attempted int, rows []row) error {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(rows))}
	for _, r := range rows {
		rep.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
