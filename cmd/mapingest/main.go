// Command mapingest validates, fingerprints and converts real-world
// graph files (SNAP/edge-list, Matrix Market, METIS — auto-detected)
// through the streaming CSR ingestion layer. It is the offline
// counterpart of mapd's POST /v1/graphs: the same loader, the same
// normalization (self-loop drop, parallel-edge merge), the same
// content fingerprint.
//
// Inspect a dataset (stats + fingerprint; nonzero exit on a parse
// error, so it doubles as a validator):
//
//	mapingest ca-GrQc.txt
//	mapingest -json web-Google.mtx          # machine-readable
//	mapingest -lcc -weights sum roads.mtx   # largest component, summed
//
// Convert to the METIS format the rest of the toolchain reads
// natively (single input only):
//
//	mapingest -o ca-GrQc.graph ca-GrQc.txt
//	mapingest -o lcc.graph -lcc -remap lcc.ids ca-GrQc.txt
//
// The -remap file records one original vertex id per line (line i =
// CSR vertex i), so converted results can be translated back to the
// input's id space.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/ingest"
)

func main() {
	var (
		format   = flag.String("format", "auto", "input format: auto, snap, matrixmarket or metis")
		weights  = flag.String("weights", "auto", "duplicate-edge weights: auto, sum or unit")
		lcc      = flag.Bool("lcc", false, "keep only the largest connected component")
		workers  = flag.Int("workers", 0, "parallel fill shards (default GOMAXPROCS, capped at 8)")
		jsonOut  = flag.Bool("json", false, "print machine-readable JSON instead of text")
		outFile  = flag.String("o", "", "convert the (single) input to this file as METIS text")
		remapOut = flag.String("remap", "", "write the CSR→original vertex id table to this file")
	)
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mapingest [flags] FILE...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if (*outFile != "" || *remapOut != "") && flag.NArg() != 1 {
		fatal(fmt.Errorf("-o and -remap take exactly one input file, got %d", flag.NArg()))
	}

	opt, err := buildOptions(*format, *weights, *lcc, *workers)
	if err != nil {
		fatal(err)
	}

	failed := 0
	for _, path := range flag.Args() {
		res, err := ingest.LoadFile(path, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapingest: %s: %v\n", path, err)
			failed++
			continue
		}
		if err := report(path, res, *jsonOut); err != nil {
			fatal(err)
		}
		if *outFile != "" {
			if err := res.Graph.WriteMETISFile(*outFile); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *outFile)
		}
		if *remapOut != "" {
			if err := writeRemap(*remapOut, res.Remap); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *remapOut)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func buildOptions(format, weights string, lcc bool, workers int) (ingest.Options, error) {
	f, err := ingest.ParseFormat(format)
	if err != nil {
		return ingest.Options{}, err
	}
	wm, err := ingest.ParseWeights(weights)
	if err != nil {
		return ingest.Options{}, err
	}
	return ingest.Options{Format: f, Weights: wm, LargestComponent: lcc, Workers: workers}, nil
}

// fileReport is the -json schema: the load stats plus the graph's
// identity, matching the fields mapd returns from POST /v1/graphs.
type fileReport struct {
	Path           string       `json:"path"`
	Fingerprint    string       `json:"fingerprint"`
	N              int          `json:"n"`
	M              int          `json:"m"`
	FootprintBytes int64        `json:"footprint_bytes"`
	Connected      bool         `json:"connected"`
	Stats          ingest.Stats `json:"stats"`
}

func report(path string, res *ingest.Result, asJSON bool) error {
	g := res.Graph
	r := fileReport{
		Path:           path,
		Fingerprint:    res.Fingerprint.String(),
		N:              g.N(),
		M:              g.M(),
		FootprintBytes: g.FootprintBytes(),
		Connected:      g.IsConnected(),
		Stats:          res.Stats,
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	fmt.Printf("%s: %s, n=%d m=%d (%d entries, %d self-loops dropped, %d parallel edges merged)\n",
		path, r.Stats.Format, r.N, r.M, r.Stats.Entries, r.Stats.SelfLoops, r.Stats.MultiEdges)
	if r.Stats.ComponentsDropped > 0 {
		fmt.Printf("  largest component kept: %d components / %d vertices dropped\n",
			r.Stats.ComponentsDropped, r.Stats.VerticesDropped)
	}
	fmt.Printf("  connected=%v  csr=%d bytes  peak≈%d bytes  load=%.3fs\n",
		r.Connected, r.FootprintBytes, r.Stats.PeakBytes, r.Stats.LoadSeconds)
	fmt.Printf("  fingerprint %s\n", r.Fingerprint)
	return nil
}

func writeRemap(path string, remap []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, id := range remap {
		if _, err := fmt.Fprintln(f, id); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapingest:", err)
	os.Exit(1)
}
