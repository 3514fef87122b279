package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists what a user of the program sees; BENCHMARK.json gives each
// its bound. Every workload reports all of them (see README.md for what an
// "operation" is on each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// perLayer lists the traced run's numbers, layer by layer.
var perLayer = []metricDef{
	{"network.events", "count"},
	{"network.queued_events", "count"},
	{"network.queued_per_pkt", "ratio"},
	{"network.ns_per_event", "ns"},
	{"sync.horizon_advances", "count"},
	{"sync.blocked_waits", "count"},
	{"sync.blocked_wait_s", "s"},
	{"sync.cross_shard_events", "count"},
	{"sync.busy_cores", "cores"},
	{"exp.table4_s", "s"},
	{"exp.fig6_s", "s"},
	{"exp.sim_runs", "count"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.respelled_misses", "count"},
	{"serve.dup_inflight_misses", "count"},
	{"serve.sim_runs", "count"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.wait_ms_mean", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"observe.miss_ms_p50", "ms"},
	{"host.cpu_s", "s"},
	{"host.steal_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"cpu.queue_s", "s"},
	{"cpu.engine_s", "s"},
	{"cpu.coalesce_s", "s"},
	{"cpu.sync_s", "s"},
	{"cpu.sources_s", "s"},
	{"cpu.serve_s", "s"},
	{"cpu.codec_s", "s"},
	{"cpu.gc_s", "s"},
	{"cpu.other_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.spans", "count"},
}

// report is what a workload hands back: counts, correctness problems and
// metric readings by name.
type report struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) problem(format string, args ...any) {
	// One bad result class can repeat thousands of times; keep the first few.
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	if len(r.problems) == 20 {
		r.problems = append(r.problems, "further problems not listed")
	}
}

// minTailSamples is the smallest sample a p99 is taken from: it leaves ten
// samples beyond the percentile.
const minTailSamples = 1000

// setOps records the operation-time metrics shared by every workload: wall_s
// is the median time of one round of the workload, jobs_per_s the completed
// jobs per second of the timed phase, and job_p50_ms/job_p99_ms the
// nearest-rank percentiles of per-job times. A sample too small for a p99
// has no tail to report, so job_p99_ms then carries the median, the highest
// percentile it supports.
func (r *report) setOps(rounds []time.Duration, jobs int64, timed time.Duration, jobTimes []time.Duration) {
	r.set("wall_s", median(rounds).Seconds())
	r.set("jobs_per_s", float64(jobs)/timed.Seconds())
	r.set("job_p50_ms", ms(percentile(jobTimes, 50)))
	tail := 99.0
	if len(jobTimes) < minTailSamples {
		tail = 50
	}
	r.set("job_p99_ms", ms(percentile(jobTimes, tail)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of ds (0 for none).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of ds, averaging the two middle ones for
// an even count.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeSetup runs fn n times and returns the median duration; the last call's
// state is the one the workload keeps.
func timeSetup(n int, fn func(last bool) error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i == n-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0))
	}
	return median(ds), nil
}

// phase brackets a timed phase to report the host and Go runtime layer
// numbers: CPU seconds of the process, bytes allocated, GC cycles. In a
// traced run it also brackets the CPU profile, so the cpu.* buckets cover
// the timed phase alone.
type phase struct {
	e     *env
	start time.Time
	cpu   time.Duration
	alloc uint64
	gc    uint32
	steal time.Duration
}

func beginPhase(e *env) phase {
	e.startProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phase{e: e, start: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, gc: ms.NumGC, steal: stealTime()}
}

// end records host.cpu_s, host.steal_s, go.alloc_mb, go.gc_cycles and
// sync.busy_cores (CPU seconds per wall second) and returns the phase's wall
// time.
func (p phase) end(r *report) time.Duration {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu
	p.e.stopProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("host.cpu_s", cpu.Seconds())
	r.set("host.steal_s", (stealTime() - p.steal).Seconds())
	r.set("sync.busy_cores", cpu.Seconds()/wall.Seconds())
	r.set("go.alloc_mb", float64(ms.TotalAlloc-p.alloc)/(1<<20))
	r.set("go.gc_cycles", float64(ms.NumGC-p.gc))
	return wall
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the machine's hypervisor steal time so far: CPU time its
// virtual CPUs had work for but the host gave to other guests. It is the
// main source of run-to-run noise on a shared virtual machine.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
