// Command perfbench is the repository's end-to-end benchmark. One process runs
// one workload for one seed and prints, as its last line, a JSON object with
// the workload's correctness verdict, its operation counts and its metrics:
//
//	perfbench -workload large-run|reproduce|serve-mix -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics, measured untraced. With
// -trace 1 it runs the same workload again with spans and a CPU profile and
// prints the per-layer metrics. -print-corpus prints the start of the
// serve-mix request corpus for -seed instead of running anything. run.sh
// builds and runs it; README.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) (*report, error){
	"large-run": largeRun,
	"reproduce": reproduce,
	"serve-mix": serveMix,
}

// env is what a workload runner gets: the run's parameters and, in a traced
// run, the tracer.
type env struct {
	seed    uint64
	seconds time.Duration
	procs   int     // host CPUs: the large-run shard count and serve-mix workers/clients
	tr      *tracer // nil in an untraced run
	outDir  string  // where a traced run writes its spans and profile
	name    string  // workload name, for output file names

	prof    *os.File // CPU profile of the timed phase, traced runs only
	profErr error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "large-run | reproduce | serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase, in seconds (whole operations; at least one)")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = untraced run printing end-to-end metrics")
	outDir := fs.String("out", ".bench_build", "directory for spans and CPU profiles")
	printCorpus := fs.Bool("print-corpus", false, "print the start of the serve-mix corpus for -seed as JSON lines and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := runtime.NumCPU()
	if *printCorpus {
		if err := writeCorpus(stdout, *seed, procs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", names)
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		procs: procs, outDir: *outDir, name: *workload}
	if *trace == 1 {
		e.tr = newTracer()
	}
	// A run ends on its own well inside three minutes; the deadline only
	// bounds a hang.
	ctx, cancel := context.WithTimeout(context.Background(), e.seconds+150*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var rep *report
	var err error
	if e.tr != nil {
		rep, err = tracedRun(ctx, e, runner)
	} else {
		rep, err = runner(ctx, e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.set("peak_rss_mb", peakRSSMB())
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err := writeResult(stdout, rep, e.tr != nil); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one. A metric the workload has no reading
// for prints as 0 in the per-layer set (the layer did no work); an
// end-to-end metric with no reading is a bug.
func writeResult(w io.Writer, rep *report, traced bool) error {
	set := endToEnd
	if traced {
		set = perLayer
	}
	out := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricJSON, len(set))}
	for _, m := range set {
		v, ok := rep.values[m.name]
		if !ok && !traced {
			return fmt.Errorf("workload reported no %s", m.name)
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		return errors.New("workload attempted no operation")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
