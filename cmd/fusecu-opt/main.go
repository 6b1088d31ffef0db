// Command fusecu-opt runs principle-based dataflow optimization on a matrix
// multiplication or a chain of them.
//
// Single operator:
//
//	fusecu-opt -m 1024 -k 768 -l 768 -buffer 524288
//
// Chain (comma-separated MxKxL operators; consecutive shapes must chain):
//
//	fusecu-opt -chain 512x64x512,512x512x64 -buffer 65536
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fusecu/internal/core"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: usage errors go to stderr with exit code
// 2, runtime failures to stderr with exit code 1, and nothing is written to
// stdout unless the input validated.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fusecu-opt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m      = fs.Int("m", 1024, "M dimension (rows of A and C)")
		k      = fs.Int("k", 768, "K dimension (reduction)")
		l      = fs.Int("l", 768, "L dimension (columns of B and C)")
		buffer = fs.Int64("buffer", 512*1024, "buffer size in elements")
		chain  = fs.String("chain", "", "comma-separated MxKxL chain, e.g. 512x64x512,512x512x64")
		check  = fs.Bool("check", false, "cross-check against the DAT-style search baseline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fusecu-opt: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	if *chain != "" {
		if err := runChain(stdout, *chain, *buffer); err != nil {
			fmt.Fprintln(stderr, "fusecu-opt:", err)
			return 1
		}
		return 0
	}
	if err := runSingle(stdout, op.MatMul{Name: "op", M: *m, K: *k, L: *l}, *buffer, *check); err != nil {
		fmt.Fprintln(stderr, "fusecu-opt:", err)
		return 1
	}
	return 0
}

func runSingle(w io.Writer, mm op.MatMul, buffer int64, check bool) error {
	res, err := core.Optimize(mm, buffer)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "operator:   %v\n", mm)
	fmt.Fprintf(w, "buffer:     %d elements (%s regime)\n", buffer, res.Regime)
	fmt.Fprintf(w, "dataflow:   %v\n", res.Dataflow)
	fmt.Fprintf(w, "principle:  P%d — %s\n", res.Principle, res.Note)
	fmt.Fprintf(w, "NRA class:  %s\n", res.Access.NRA)
	fmt.Fprintf(w, "memory:     %d elements (ideal lower bound %d, overhead %.2f%%)\n",
		res.Access.Total, mm.IdealMA(),
		100*(float64(res.Access.Total)/float64(mm.IdealMA())-1))
	fmt.Fprintf(w, "per tensor: A=%d B=%d C=%d (spill read-back %d)\n",
		res.Access.PerTensor[0], res.Access.PerTensor[1], res.Access.PerTensor[2], res.Access.OutputReads)
	fmt.Fprintf(w, "footprint:  %d / %d elements\n", res.Access.Footprint, buffer)
	if check {
		sr, err := search.Optimize(mm, buffer, search.GeneticOptions{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "search:     %d elements after %d cost evaluations (%s)\n",
			sr.Access.Total, sr.Evaluations, sr.Method)
	}
	return nil
}

func runChain(w io.Writer, spec string, buffer int64) error {
	ops, err := parseChain(spec)
	if err != nil {
		return err
	}
	c, err := op.NewChain("chain", ops...)
	if err != nil {
		return err
	}
	plan, err := core.PlanChain(c, buffer)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%v\n", c)
	fmt.Fprintf(w, "buffer: %d elements\n\n", buffer)
	for i, d := range plan.Decisions {
		verdict := "do not fuse"
		if d.Fuse {
			verdict = fmt.Sprintf("fuse (%s, gain %d)", d.Fused.Dataflow.Pattern, d.Gain)
		}
		fmt.Fprintf(w, "link %d: NRA %s ⨝ %s, same=%v → %s\n", i, d.FirstNRA, d.SecondNRA, d.SameNRA, verdict)
	}
	fmt.Fprintln(w)
	for _, g := range plan.Groups {
		fmt.Fprintf(w, "  %v\n", g)
	}
	fmt.Fprintf(w, "\ntotal MA: %d (unfused %d, saving %.1f%%)\n",
		plan.TotalMA, plan.UnfusedMA, 100*plan.Saving())
	return nil
}

func parseChain(spec string) ([]op.MatMul, error) {
	var ops []op.MatMul
	for i, part := range strings.Split(spec, ",") {
		dims := strings.Split(strings.TrimSpace(part), "x")
		if len(dims) != 3 {
			return nil, fmt.Errorf("operator %d: want MxKxL, got %q", i, part)
		}
		var v [3]int
		for j, d := range dims {
			n, err := strconv.Atoi(d)
			if err != nil {
				return nil, fmt.Errorf("operator %d: %w", i, err)
			}
			v[j] = n
		}
		ops = append(ops, op.MatMul{Name: fmt.Sprintf("op%d", i), M: v[0], K: v[1], L: v[2]})
	}
	return ops, nil
}
