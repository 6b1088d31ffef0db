// Command fusecu-tablegen builds candidate-table artifacts offline, so a
// serving fleet started with -table-dir answers every known shape from disk
// instead of paying the table build at request time.
//
//	fusecu-tablegen -out tables/ -set table2 -verify
//
// The -set flag picks the shape family:
//
//   - table2: the deduplicated operator shapes of the Table II evaluation
//     models plus the Fig. 11 LLaMA2 sequence sweep, on the coarse lattice
//     (what /v1/search engine=coarse consults).
//   - bench: the serve-load benchmark shapes on the full lattice (what
//     engine=exhaustive consults), for the routed-fleet load bench.
//   - all: both.
//
// Artifacts are content-addressed (<shapehash>-<costmodel>.fct) and
// published atomically; a manifest.json indexes the directory for tooling
// and CI. With -verify every artifact is loaded back through the store
// (checksums plus live cost-model cross-check) and its re-encoding is
// required to be bit-identical to the file on disk — the restart-load
// property the serving path depends on.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"fusecu/api"
	"fusecu/internal/experiments"
	"fusecu/internal/op"
	"fusecu/internal/search"
	"fusecu/internal/tablestore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// genTask is one artifact to build: a shape and the lattice to tabulate.
type genTask struct {
	mm   op.MatMul
	grid search.Grid
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fusecu-tablegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out    = fs.String("out", "", "output directory for artifacts (required)")
		set    = fs.String("set", "table2", "shape family to generate: table2, bench, or all")
		verify = fs.Bool("verify", false,
			"after generating, load every artifact back from disk and require its re-encoding to be bit-identical")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fusecu-tablegen: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "fusecu-tablegen: -out is required")
		fs.Usage()
		return 2
	}

	var tasks []genTask
	if *set == "table2" || *set == "all" {
		shapes, err := experiments.TableIIShapes()
		if err != nil {
			fmt.Fprintln(stderr, "fusecu-tablegen:", err)
			return 1
		}
		for _, mm := range shapes {
			tasks = append(tasks, genTask{mm: mm, grid: search.GridCoarse})
		}
	}
	if *set == "bench" || *set == "all" {
		for _, mm := range experiments.ServeLoadOps() {
			tasks = append(tasks, genTask{mm: mm, grid: search.GridFull})
		}
	}
	if len(tasks) == 0 {
		fmt.Fprintf(stderr, "fusecu-tablegen: unknown -set %q (want table2, bench, or all)\n", *set)
		fs.Usage()
		return 2
	}

	store, err := tablestore.Open(*out)
	if err != nil {
		fmt.Fprintln(stderr, "fusecu-tablegen:", err)
		return 1
	}
	entries := make([]tablestore.ManifestEntry, 0, len(tasks))
	for _, task := range tasks {
		tab, err := search.NewCandTable(task.mm, task.grid, nil)
		if err != nil {
			fmt.Fprintf(stderr, "fusecu-tablegen: build %v over %s: %v\n", task.mm, task.grid, err)
			return 1
		}
		name, err := store.Put(tab)
		if err != nil {
			fmt.Fprintln(stderr, "fusecu-tablegen:", err)
			return 1
		}
		info, err := os.Stat(store.Path(task.mm, task.grid))
		if err != nil {
			fmt.Fprintln(stderr, "fusecu-tablegen:", err)
			return 1
		}
		entries = append(entries, tablestore.ManifestEntry{
			File:       name,
			ShapeHash:  api.ShapeHash(task.mm.M, task.mm.K, task.mm.L, task.grid.String()),
			Op:         api.OpSpec{Name: task.mm.Name, M: task.mm.M, K: task.mm.K, L: task.mm.L},
			Grid:       task.grid.String(),
			Candidates: tab.Candidates(),
			Bytes:      info.Size(),
		})
		fmt.Fprintf(stdout, "wrote %s: %dx%dx%d %s grid, %d candidates, %d bytes\n",
			name, task.mm.M, task.mm.K, task.mm.L, task.grid, tab.Candidates(), info.Size())
	}
	if err := store.WriteManifest(entries); err != nil {
		fmt.Fprintln(stderr, "fusecu-tablegen:", err)
		return 1
	}

	if *verify {
		for _, task := range tasks {
			if err := verifyArtifact(store, task); err != nil {
				fmt.Fprintln(stderr, "fusecu-tablegen: verify:", err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "verified %d artifacts: restart-load bit-identical\n", len(tasks))
	}
	fmt.Fprintf(stdout, "generated %d tables in %s (%s)\n", len(tasks), store.Dir(), tablestore.ManifestName)
	return 0
}

// verifyArtifact simulates a server restart: the artifact is loaded back
// through the store's full validation path (section checksums plus the
// decoder's live cost-model cross-check of every step), and its re-encoding
// must be bit-identical to the bytes on disk.
func verifyArtifact(store *tablestore.Store, task genTask) error {
	loaded, err := store.Load(task.mm, task.grid)
	if err != nil {
		return err
	}
	disk, err := os.ReadFile(store.Path(task.mm, task.grid))
	if err != nil {
		return err
	}
	if !bytes.Equal(search.EncodeTable(loaded), disk) {
		return fmt.Errorf("%v over %s: re-encoded table differs from artifact on disk",
			task.mm, task.grid)
	}
	return nil
}
