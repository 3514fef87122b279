package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by benchmark code
// around its calls into the program. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(parent int64, name, req string) (int64, func()) {
	if t == nil {
		return 0, noop
	}
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))}
	return s.ID, func() {
		s.End = int64(time.Since(t.t0))
		t.mu.Lock()
		t.done = append(t.done, s)
		t.mu.Unlock()
	}
}

// writeJSONL writes every closed span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.done {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (e *env) profilePath() string {
	return filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", e.name, e.seed))
}

// startProfile starts the CPU profile of a traced run's timed phase.
func (e *env) startProfile() {
	if e.tr == nil {
		return
	}
	f, err := os.Create(e.profilePath())
	if err == nil {
		err = pprof.StartCPUProfile(f)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		e.profErr = fmt.Errorf("start CPU profile: %w", err)
		return
	}
	e.prof = f
}

func (e *env) stopProfile() {
	if e.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := e.prof.Close(); err != nil && e.profErr == nil {
		e.profErr = fmt.Errorf("write CPU profile: %w", err)
	}
	e.prof = nil
}

// tracedRun runs a workload with spans and a CPU profile of its timed phase,
// writes the spans as JSONL and reduces the profile into the cpu.* per-layer
// buckets.
func tracedRun(ctx context.Context, e *env, runner func(context.Context, *env) (*report, error)) (*report, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	rep, err := runner(ctx, e)
	e.stopProfile() // in case the runner failed inside its timed phase
	if err != nil {
		return nil, err
	}
	if e.profErr != nil {
		return nil, e.profErr
	}
	spans := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", e.name, e.seed))
	if err := e.tr.writeJSONL(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	e.tr.mu.Lock()
	rep.set("trace.spans", float64(len(e.tr.done)))
	e.tr.mu.Unlock()
	rep.set("trace.wall_s", rep.values["wall_s"])
	top, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-files",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", e.profilePath()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	buckets, err := cpuBuckets(string(top))
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		rep.set("cpu."+l.name+"_s", buckets[l.name])
	}
	rep.set("cpu.other_s", buckets["other"])
	return rep, nil
}

// layers assigns source files to the cpu.* buckets: the first layer with a
// matching path fragment wins, and a file matching none counts as other.
var layers = []struct {
	name      string
	fragments []string
}{
	{"queue", []string{"/internal/network/calendar.go", "/internal/network/heap.go", "/internal/network/queue.go"}},
	{"coalesce", []string{"/internal/network/coalesce.go"}},
	{"sync", []string{"/internal/network/shard.go", "/internal/network/shard_async.go", "/internal/parallel/"}},
	{"engine", []string{"/internal/network/"}},
	{"sources", []string{"/internal/collective/", "/internal/traffic/", "/internal/torus/"}},
	{"serve", []string{"/internal/serve/", "/net/http/", "/src/net/"}},
	{"codec", []string{"/encoding/json/"}},
	{"gc", []string{"/runtime/mgc", "/runtime/mbitmap.go", "/runtime/mwbbuf.go", "/runtime/mspanset.go"}},
}

func layerOf(file string) string {
	for _, l := range layers {
		for _, f := range l.fragments {
			if strings.Contains(file, f) {
				return l.name
			}
		}
	}
	return "other"
}

// cpuBuckets sums the flat seconds of `go tool pprof -top -files` output by
// layer.
func cpuBuckets(top string) (map[string]float64, error) {
	out := map[string]float64{}
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := parseSeconds(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		file := strings.Join(fields[5:], " ")
		out[layerOf(file)] += flat
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no table:\n%s", top)
	}
	return out, nil
}

// parseSeconds reads a pprof time value: a Go duration ("1.20s", "10ms",
// "0") or pprof's long-run units ("1.50mins", "1.02hrs").
func parseSeconds(v string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}} {
		if n, ok := strings.CutSuffix(v, u.suffix); ok {
			f, err := strconv.ParseFloat(n, 64)
			return f * u.scale, err
		}
	}
	d, err := time.ParseDuration(v)
	return d.Seconds(), err
}
