// Command rscompute computes the register saturation of DDGs — the maximal
// register requirement over all valid schedules (Section 3 of the paper).
// Multiple files and directories are analyzed concurrently by the batch
// engine, with deterministic output order.
//
// Usage:
//
//	rscompute -kernel lin-daxpy [-machine vliw] [-method greedy|bb|ilp]
//	rscompute -f body.ddg [-method bb] [-witness]
//	rscompute -parallel 8 testdata/ extra.ddg
//
// The input is a built-in benchmark kernel (-kernel, see `ddggen -list`), a
// DDG file in the textual format (-f, "-" for stdin), or any mix of .ddg
// files and directories as positional arguments.
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
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rscompute:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rscompute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file     = fs.String("f", "", "DDG file in textual format (\"-\" = stdin)")
		kernel   = fs.String("kernel", "", "built-in kernel name (see ddggen -list)")
		machine  = fs.String("machine", "superscalar", "machine kind: superscalar|vliw|epic")
		method   = fs.String("method", "greedy", "saturation method: greedy|bb|ilp")
		dot      = fs.Bool("dot", false, "emit the DDG in Graphviz format and exit (single input)")
		witness  = fs.Bool("witness", false, "print a saturating schedule")
		parallel = fs.Int("parallel", 0, "worker count for multi-file analysis (0 = GOMAXPROCS)")
		certify  = fs.Bool("cyclic", false, "certify loop kernels with the exact periodic MILP (small kernels only)")
		stats    = fs.Bool("solver-stats", false, "print per-solve search statistics (MILP nodes/iterations or exact-BB leaves/prunes)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, exit 0
		}
		return err
	}

	opts := regsat.RSOptions{SkipWitness: !*witness}
	switch *method {
	case "greedy":
		opts.Method = regsat.GreedyK
	case "bb":
		opts.Method = regsat.ExactBB
	case "ilp":
		opts.Method = regsat.ExactILP
		opts.ApplyReductions = true
	default:
		return fmt.Errorf("unknown method %q", *method)
	}

	if *dot {
		g, err := loadDotGraph(*file, *kernel, *machine, fs.Args())
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, g.DOT())
		return nil
	}
	src, err := buildSource(*file, *kernel, *machine, fs.Args())
	if err != nil {
		return err
	}

	ch, err := regsat.AnalyzeAll(context.Background(), []regsat.GraphSource{src},
		regsat.BatchOptions{Parallel: *parallel, RS: opts,
			Cyclic: regsat.CyclicOptions{Certify: *certify}})
	if err != nil {
		return err
	}
	failed := 0
	for res := range ch {
		if res.Err != nil {
			failed++
			fmt.Fprintf(stderr, "rscompute: %s: %v\n", res.Name, res.Err)
			continue
		}
		if res.Loop != nil {
			printLoop(stdout, res)
			continue
		}
		g := res.Graph
		fmt.Fprintf(stdout, "DDG %s (%s): %d nodes, %d edges, critical path %d\n",
			g.Name, g.Machine, g.NumNodes(), g.NumEdges(), g.CriticalPath())
		for _, t := range g.Types() {
			r := res.RS[t]
			if r == nil {
				continue
			}
			exact := "≥ (heuristic lower bound)"
			if r.Exact {
				exact = "= (exact)"
			}
			fmt.Fprintf(stdout, "  RS_%s %s %d   values=%d saturating=%v\n",
				t, exact, r.RS, len(g.Values(t)), names(g, r.Antichain))
			// Capped exact searches report their proven interval the same
			// way, whether the MILP solver or the combinatorial search hit
			// its budget.
			if !r.Exact && r.BBStats != nil && r.BBStats.Capped && r.BBStats.UpperBound > r.RS {
				fmt.Fprintf(stdout, "    capped search: RS ∈ [%d, %d]\n", r.RS, r.BBStats.UpperBound)
			}
			if !r.Exact && r.ILPUpperBound > r.RS {
				fmt.Fprintf(stdout, "    capped solve: RS ∈ [%d, %d]\n", r.RS, r.ILPUpperBound)
			}
			if *stats && r.BBStats != nil {
				fmt.Fprintf(stdout, "    exact-bb: %d leaves, %d subtrees pruned, proven upper bound %d\n",
					r.BBStats.Leaves, r.BBStats.Pruned, r.BBStats.UpperBound)
			}
			if r.ILP != nil {
				fmt.Fprintf(stdout, "    intLP: %d vars (%d integer), %d constraints, %d redundant arcs dropped, %d never-alive pairs\n",
					r.ILP.Vars, r.ILP.IntVars, r.ILP.Constrs, r.ILP.RedundantArcs, r.ILP.NeverAlivePairs)
			}
			if *stats && r.SolverStats != nil {
				st := r.SolverStats
				fmt.Fprintf(stdout, "    solver: %d nodes, %d simplex iters, warm-start %.0f%% (%d warm / %d cold), %d incumbents, %d fallbacks, %v\n",
					st.Nodes, st.SimplexIters, 100*st.WarmRate(), st.WarmStarts, st.ColdStarts,
					st.Incumbents, st.Fallbacks, st.Duration.Round(time.Microsecond))
				fmt.Fprintf(stdout, "    presolve: %d rows, %d cols removed, %d tightenings; cuts: %d added, %d active; branching: %d probes, %d reliable vars\n",
					st.PresolveRows, st.PresolveCols, st.PresolveTightenings,
					st.CutsAdded, st.CutsActive, st.BranchProbes, st.ReliableVars)
			}
			if *witness && r.Witness != nil {
				fmt.Fprintf(stdout, "    saturating schedule (RN=%d):\n", r.Witness.RegisterNeed(t))
				for u := 0; u < g.NumNodes(); u++ {
					if u == g.Bottom() {
						continue
					}
					fmt.Fprintf(stdout, "      t=%-3d %s\n", r.Witness.Times[u], g.Node(u).Name)
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d input(s) failed", failed)
	}
	return nil
}

// printLoop renders a cyclic loop item's periodic analysis: the unrolled
// RS(k) window sequence with its converged per-iteration delta and Fekete
// slope bound, plus the periodic MILP certificate when one was computed.
func printLoop(w io.Writer, res regsat.BatchResult) {
	l := res.Loop
	carried := 0
	for _, e := range l.Edges() {
		if e.Dist > 0 {
			carried++
		}
	}
	fmt.Fprintf(w, "Loop %s (%s): %d nodes, %d edges (%d loop-carried)\n",
		l.Name, l.Machine, len(l.Nodes()), len(l.Edges()), carried)
	for _, t := range l.Types() {
		r := res.Cyclic[t]
		if r == nil {
			continue
		}
		conv := "not converged"
		if r.Converged {
			conv = fmt.Sprintf("Δ=%d/iteration", r.PerIter)
		}
		exact := "≥ (heuristic lower bounds)"
		if r.Exact {
			exact = "(exact windows)"
		}
		fmt.Fprintf(w, "  RS_%s windows %v %s   %s, slope ≤ %.3f\n",
			t, r.Windows, exact, conv, r.Slope)
		if p := r.Periodic; p != nil {
			status := fmt.Sprintf("PRS ∈ [%d, %d]", p.RS, p.UpperBound)
			if p.Exact {
				status = fmt.Sprintf("PRS = %d (exact)", p.RS)
			}
			fmt.Fprintf(w, "    periodic MILP: II=%d, %s, jmax=%d\n", p.II, status, p.Jmax)
		}
	}
}

// buildSource assembles the input stream: a kernel, stdin ("-f -"), and any
// mix of files and directories, analyzed in the order given.
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
		src, err := loadStdinSource()
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return src, nil
		}
		rest, err := regsat.SourcePaths(args...)
		if err != nil {
			return nil, err
		}
		return regsat.SourceConcat(src, rest), nil
	case file != "" || len(args) > 0:
		paths := args
		if file != "" {
			paths = append([]string{file}, args...)
		}
		return regsat.SourcePaths(paths...)
	default:
		return nil, fmt.Errorf("need -f, -kernel, or input paths (try -kernel lin-daxpy)")
	}
}

// loadDotGraph resolves the single graph -dot renders.
func loadDotGraph(file, kernel, machine string, args []string) (*regsat.Graph, error) {
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
		return spec.Build(mk), nil
	case file == "-" && len(args) == 0:
		return loadStdin()
	case file != "" && len(args) == 0:
		return loadSingle(file)
	case file == "" && len(args) == 1:
		return loadSingle(args[0])
	default:
		return nil, fmt.Errorf("-dot needs a single input (-kernel, -f, or one file)")
	}
}

func loadStdin() (*regsat.Graph, error) {
	g, err := regsat.ParseGraph(os.Stdin)
	if err != nil {
		return nil, err
	}
	return g, g.Finalize()
}

// loadStdinSource reads one DDG from stdin, routing loop kernels (the `loop`
// header flag) to the cyclic pipeline.
func loadStdinSource() (regsat.GraphSource, error) {
	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, err
	}
	if regsat.DetectLoop(string(raw)) {
		l, err := regsat.ParseLoopString(string(raw))
		if err != nil {
			return nil, err
		}
		return regsat.SourceLoops(l), nil
	}
	g, err := regsat.ParseGraphString(string(raw))
	if err != nil {
		return nil, err
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return regsat.SourceGraphs(g), nil
}

func loadSingle(path string) (*regsat.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := regsat.ParseGraph(f)
	if err != nil {
		// The parse error carries line:column; the path comes from here.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, g.Finalize()
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

func names(g *regsat.Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Name
	}
	return out
}
