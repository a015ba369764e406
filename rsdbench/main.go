// Command rsdbench is the end-to-end benchmark of rsd, the register-saturation
// analysis daemon, driven the way compiler workers use it: closed-loop
// clients that submit generated .ddg blocks and loops and wait for each
// answer. Every answer is checked against a reference computed in-process by
// a different code path. See README.md for the workloads and the metrics.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	rsdbench -rsd <rsd binary> --workload warm-memo --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics, with --trace 1 the per-layer metrics of a separate
// traced run. Any failed step exits 1 without printing a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("rsdbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds  = fs.Int("seconds", 10, "nominal length of the timed phase; sets the fixed amount of work")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
		rsdBin   = fs.String("rsd", "", "path to the rsd binary under test")
		workDir  = fs.String("work", ".bench_build/work", "scratch directory for daemon stores and logs (emptied per run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *rsdBin == "" {
		fmt.Fprintf(os.Stderr, "rsdbench: need -rsd, --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	b, err := newBench(ctx, *rsdBin, *workDir, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsdbench: set-up:", err)
		return 1
	}
	defer b.close()
	b.logf("workload %s seed %d seconds %d trace %d; %s, nproc %d",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU())

	var res *result
	if *trace == 1 {
		res, err = b.traced(w)
	} else {
		res, err = b.endToEnd(w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsdbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range b.corpusLines() {
		fmt.Println(line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsdbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one benchmark run: its inputs, the daemons it started and the
// scratch directory they use. close stops every daemon on every exit path.
type bench struct {
	ctx     context.Context
	rsdBin  string
	workDir string
	seed    int64
	seconds int

	daemons []*daemon
	corpora []*corpus
}

func newBench(ctx context.Context, rsdBin, workDir string, seed int64, seconds int) (*bench, error) {
	bin, err := filepath.Abs(rsdBin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("rsd binary: %w", err)
	}
	if err := os.RemoveAll(workDir); err != nil {
		return nil, fmt.Errorf("clearing %s: %w", workDir, err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	// One untimed exec pages the binary in, so the first set-up does not pay
	// for reading it from disk.
	if err := exec.CommandContext(ctx, bin, "-h").Run(); err != nil {
		return nil, fmt.Errorf("rsd -h: %w", err)
	}
	return &bench{ctx: ctx, rsdBin: bin, workDir: workDir, seed: seed, seconds: seconds}, nil
}

// close kills and reaps every daemon still running, then removes the
// scratch directory.
func (b *bench) close() {
	for _, d := range b.daemons {
		d.stop()
	}
	os.RemoveAll(b.workDir)
}

// logf writes a progress line to standard error.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rsdbench: "+format+"\n", args...)
}

// corpusLines records every corpus the run generated, by item count and
// content hash, so that two commits provably ran the same inputs.
func (b *bench) corpusLines() []string {
	out := []string{fmt.Sprintf("# %s nproc %d", runtime.Version(), runtime.NumCPU())}
	for _, c := range b.corpora {
		out = append(out, fmt.Sprintf("# corpus %-10s items %6d sha256 %s", c.stream, c.n, c.sum()))
	}
	return out
}
