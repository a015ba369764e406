// Command rsreduce reduces the register saturation of DDGs below a register
// budget by inserting serialization arcs (Section 4 of the paper), and emits
// the extended, scheduler-ready DDG. Multiple files and directories are
// processed concurrently by the batch engine, with deterministic output
// order.
//
// Usage:
//
//	rsreduce -kernel spec-swim -r 6 [-machine vliw] [-method heuristic|exact|ilp]
//	rsreduce -f body.ddg -r 8 -emit
//	rsreduce -r 4 -type float -parallel 8 testdata/
//
// Exit status: 0 on success, 1 on failure, 2 when some input is not
// reducible to the budget (spill code unavoidable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"regsat"
	"regsat/internal/ddg"
	"regsat/internal/kernels"
	"regsat/internal/reduce"
)

// errSpill distinguishes "worked, but spill is unavoidable" (exit 2) from
// hard failures (exit 1).
var errSpill = errors.New("spill code unavoidable")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, errSpill):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "rsreduce:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rsreduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file     = fs.String("f", "", "DDG file in textual format (\"-\" = stdin)")
		kernel   = fs.String("kernel", "", "built-in kernel name (see ddggen -list)")
		machine  = fs.String("machine", "superscalar", "machine kind: superscalar|vliw|epic")
		method   = fs.String("method", "heuristic", "reduction method: heuristic|exact|ilp")
		regs     = fs.Int("r", 8, "available registers R_t")
		typ      = fs.String("type", "float", "register type to reduce")
		emit     = fs.Bool("emit", false, "emit the extended DDG in textual format (single input)")
		dot      = fs.Bool("dot", false, "emit the extended DDG in Graphviz format (single input)")
		parallel = fs.Int("parallel", 0, "worker count for multi-file reduction (0 = GOMAXPROCS)")
		stats    = fs.Bool("solver-stats", false, "print per-solve MILP statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}

	t := regsat.RegType(*typ)
	opts := regsat.ReduceOptions{}
	switch *method {
	case "heuristic":
		opts.Method = regsat.ReduceHeuristic
	case "exact":
		opts.Method = regsat.ReduceExact
	case "ilp":
		opts.Method = regsat.ReduceExactILP
		opts.ILP = reduce.ILPOptions{ApplyReductions: true, GuaranteeDAG: true}
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	src, err := buildSource(*file, *kernel, *machine, fs.Args())
	if err != nil {
		return err
	}
	batchOpts := regsat.BatchOptions{
		Parallel: *parallel,
		RS:       regsat.RSOptions{Method: regsat.GreedyK, SkipWitness: true},
		Types:    []regsat.RegType{t},
		Reduce: &regsat.BatchReduce{
			Budget: *regs,
			Run: func(ctx context.Context, g *regsat.Graph, rt regsat.RegType, budget int) (*regsat.ReduceResult, error) {
				return regsat.ReduceRSContext(ctx, g, rt, budget, opts)
			},
			Key: fmt.Sprintf("%s|mn%d|ilp%+v", *method, opts.MaxNodes, opts.ILP),
		},
	}
	ch, err := regsat.AnalyzeAll(context.Background(), []regsat.GraphSource{src}, batchOpts)
	if err != nil {
		return err
	}
	failed, spilled := false, false
	for res := range ch {
		if res.Err != nil {
			failed = true
			fmt.Fprintf(stderr, "rsreduce: %s: %v\n", res.Name, res.Err)
			continue
		}
		if res.Loop != nil {
			fmt.Fprintf(stdout, "Loop %s (%s): cyclic kernel — reduction targets acyclic DDGs, skipped (use rscompute -cyclic)\n",
				res.Loop.Name, res.Loop.Machine)
			continue
		}
		g := res.Graph
		before := res.RS[t]
		if before == nil {
			fmt.Fprintf(stdout, "DDG %s (%s): writes no %s values\n", g.Name, g.Machine, t)
			continue
		}
		fmt.Fprintf(stdout, "DDG %s (%s), type %s: RS*=%d, budget R=%d\n", g.Name, g.Machine, t, before.RS, *regs)
		red := res.Reductions[t]
		if red == nil {
			fmt.Fprintf(stdout, "  already within budget, no reduction needed\n")
			continue
		}
		if red.Spill {
			spilled = true
			fmt.Fprintf(stdout, "  NOT reducible to %d registers: spill code unavoidable\n", *regs)
			continue
		}
		fmt.Fprintf(stdout, "  reduced RS=%d with %d serialization arcs\n", red.RS, len(red.Arcs))
		if *stats && red.SolverStats != nil {
			st := red.SolverStats
			fmt.Fprintf(stdout, "  solver: %d nodes, %d simplex iters, warm-start %.0f%%, %d incumbents, %v\n",
				st.Nodes, st.SimplexIters, 100*st.WarmRate(), st.Incumbents, st.Duration.Round(time.Microsecond))
			fmt.Fprintf(stdout, "  presolve: %d rows, %d cols removed, %d tightenings; cuts: %d added, %d active; branching: %d probes, %d reliable vars\n",
				st.PresolveRows, st.PresolveCols, st.PresolveTightenings,
				st.CutsAdded, st.CutsActive, st.BranchProbes, st.ReliableVars)
		}
		fmt.Fprintf(stdout, "  critical path: %d → %d (ILP loss %d)\n", red.CPBefore, red.CPAfter, red.CPAfter-red.CPBefore)
		for _, a := range red.Arcs {
			fmt.Fprintf(stdout, "    arc %s → %s (latency %d)\n",
				red.Graph.Node(a.From).Name, red.Graph.Node(a.To).Name, a.Latency)
		}
		if *emit {
			fmt.Fprint(stdout, red.Graph.Format())
		}
		if *dot {
			fmt.Fprint(stdout, red.Graph.DOT())
		}
	}
	switch {
	case failed:
		return errors.New("some inputs failed")
	case spilled:
		return errSpill
	}
	return nil
}

func buildSource(file, kernel, machine string, args []string) (regsat.GraphSource, error) {
	mk, err := parseMachine(machine)
	if err != nil {
		return nil, err
	}
	switch {
	case kernel != "":
		spec, ok := kernels.ByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q (try ddggen -list)", kernel)
		}
		return regsat.SourceGraphs(spec.Build(mk)), nil
	case file == "-":
		g, err := regsat.ParseGraph(os.Stdin)
		if err != nil {
			return nil, err
		}
		if err := g.Finalize(); err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return regsat.SourceGraphs(g), nil
		}
		rest, err := regsat.SourcePaths(args...)
		if err != nil {
			return nil, err
		}
		return regsat.SourceConcat(regsat.SourceGraphs(g), rest), nil
	case file != "" || len(args) > 0:
		paths := args
		if file != "" {
			paths = append([]string{file}, args...)
		}
		return regsat.SourcePaths(paths...)
	default:
		return nil, fmt.Errorf("need -f, -kernel, or input paths")
	}
}

func parseMachine(s string) (ddg.MachineKind, error) {
	switch s {
	case "superscalar":
		return ddg.Superscalar, nil
	case "vliw":
		return ddg.VLIW, nil
	case "epic":
		return ddg.EPIC, nil
	}
	return 0, fmt.Errorf("unknown machine %q", s)
}
