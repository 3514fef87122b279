package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/serve"
	"alltoall/internal/torus"
)

// serveMix runs internal/serve in this process behind loopback HTTP with one
// worker per CPU, and drives it with a closed loop of one client per CPU
// replaying the seeded corpus. Set-up is server start plus a warm-up pass
// that puts the hot set in the LRU.
func serveMix(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	c := newCorpus(e.seed, e.procs)
	var srv *server
	var warm []record // the surviving server's warm-up replies
	setup, err := timeSetup(3, func(last bool) error {
		s, err := startServer(e.procs)
		if err != nil {
			return err
		}
		recs := s.warmUp(ctx, c.hot, e.procs)
		for _, r := range recs {
			if r.err != nil {
				s.close()
				return fmt.Errorf("warm-up %s: %w", r.req.Key(), r.err)
			}
		}
		if !last {
			checkServed(rep, recs)
			s.close()
			return nil
		}
		srv, warm = s, recs
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.close()
	rep.set("setup_s", setup.Seconds())

	before, err := srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	root, closeRoot := e.tr.begin(0, "serve-mix", "")
	ph := beginPhase(e)
	bar := newBarrier(e.procs, func() bool { return time.Since(ph.start) >= e.seconds })
	perClient := make([][]record, e.procs)
	var wg sync.WaitGroup
	for id := 0; id < e.procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			perClient[id] = srv.replay(ctx, e.tr, root, c, id, bar)
		}(id)
	}
	wg.Wait()
	timed := ph.end(rep)
	closeRoot()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := srv.metrics(ctx)
	if err != nil {
		return nil, err
	}

	checked, recs := mergeRecords(warm, perClient)
	checkServed(rep, checked)
	summarizeServe(rep, recs, before, after, bar.releases(ph.start), timed)
	if e.tr != nil {
		compareDirect(ctx, e, rep, recs)
	}
	return rep, nil
}

// mergeRecords returns the timed records in completion order, and the
// records the replay check reads: the same, behind the warm-up replies of
// the server that served them, so that every hit on a hot key is compared
// with the miss that put it in the LRU.
func mergeRecords(warm []record, perClient [][]record) (checked, timed []record) {
	for _, rs := range perClient {
		timed = append(timed, rs...)
	}
	sort.Slice(timed, func(i, j int) bool { return timed[i].end.Before(timed[j].end) })
	checked = append(append(checked, warm...), timed...)
	return checked, timed
}

// server is a serve.Server mounted on a loopback listener.
type server struct {
	svc  *serve.Server
	http *http.Server
	base string
	cli  *http.Client
	done chan struct{} // closed when Serve returns
}

func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := serve.New(serve.Config{Workers: workers})
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		cli:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * workers}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the Serve
// goroutine, then drains the worker pool.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.cli.CloseIdleConnections()
	s.svc.Close()
}

// record is one request as the client saw it.
type record struct {
	class  string
	req    collective.Request
	end    time.Time
	rtt    time.Duration
	hit    bool
	key    string
	result json.RawMessage
	err    error
}

type envelope struct {
	Status string          `json:"status"`
	Cache  string          `json:"cache"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// post submits one job and waits for its reply.
func (s *server) post(ctx context.Context, class string, req collective.Request) record {
	rec := record{class: class, req: req}
	body, err := json.Marshal(req)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	resp, err := s.cli.Do(hreq)
	if err != nil {
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end = time.Now()
	rec.rtt = rec.end.Sub(start)
	if err != nil {
		rec.err = err
		return rec
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		rec.err = fmt.Errorf("HTTP %d: decode reply: %w", resp.StatusCode, err)
		return rec
	}
	if resp.StatusCode != http.StatusOK || env.Status != "done" {
		rec.err = fmt.Errorf("HTTP %d, status %q: %s", resp.StatusCode, env.Status, env.Error)
		return rec
	}
	rec.hit, rec.key, rec.result = env.Cache == "hit", env.Key, env.Result
	return rec
}

// warmUp sends every hot scenario once, spread over the clients.
func (s *server) warmUp(ctx context.Context, hot []collective.Request, clients int) []record {
	recs := make([]record, len(hot))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(hot); i += clients {
				recs[i] = s.post(ctx, "warm-up", hot[i])
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// replay runs one closed-loop client: block after block, each ended by the
// barrier that releases the pair request, until the barrier says the timed
// phase is over.
func (s *server) replay(ctx context.Context, tr *tracer, root int64, c *corpus, id int, bar *barrier) []record {
	var recs []record
	do := func(parent int64, it item) {
		_, end := tr.begin(parent, "http.POST /v1/jobs", fmt.Sprintf("c%d-%d", id, it.Seq))
		recs = append(recs, s.post(ctx, it.Class, it.Request))
		end()
	}
	for b := 0; ; b++ {
		blk := c.block(id, b)
		blockID, closeBlock := tr.begin(root, "block", fmt.Sprintf("c%d-b%d", id, b))
		for _, it := range blk[:len(blk)-1] {
			do(blockID, it)
		}
		last, ok := bar.wait(ctx)
		if ok {
			do(blockID, blk[len(blk)-1])
		}
		closeBlock()
		if last || !ok {
			return recs
		}
	}
}

// barrier releases its parties together; the last to arrive decides whether
// the current block is the final one.
type barrier struct {
	mu      sync.Mutex
	parties int
	waiting int
	gen     *barrierGen
	decide  func() bool
	times   []time.Time
}

type barrierGen struct {
	done chan struct{}
	last bool
}

func newBarrier(parties int, decide func() bool) *barrier {
	return &barrier{parties: parties, decide: decide, gen: &barrierGen{done: make(chan struct{})}}
}

// wait blocks until every party has arrived; it reports whether this was the
// final block, and false for ok if ctx ended first.
func (b *barrier) wait(ctx context.Context) (last, ok bool) {
	b.mu.Lock()
	g := b.gen
	b.waiting++
	if b.waiting == b.parties {
		g.last = b.decide()
		b.times = append(b.times, time.Now())
		b.waiting = 0
		b.gen = &barrierGen{done: make(chan struct{})}
		close(g.done)
		b.mu.Unlock()
		return g.last, true
	}
	b.mu.Unlock()
	select {
	case <-g.done:
		return g.last, true
	case <-ctx.Done():
		return false, false
	}
}

// releases returns the time between consecutive releases, the first counted
// from start: one value per block.
func (b *barrier) releases(start time.Time) []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ds []time.Duration
	prev := start
	for _, t := range b.times {
		ds = append(ds, t.Sub(prev))
		prev = t
	}
	return ds
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	SimRuns     int64 `json:"sim_runs"`
	SyncAdv     int64 `json:"sync_horizon_advances"`
	SyncWaits   int64 `json:"sync_blocked_waits"`
	SyncWaitNs  int64 `json:"sync_blocked_wait_ns"`
	SyncXEvents int64 `json:"sync_cross_shard_events"`
	Strategies  []struct {
		Jobs   int64   `json:"jobs"`
		Failed int64   `json:"failed"`
		MeanMs float64 `json:"mean_ms"`
	} `json:"strategies"`
}

// runMs is the total worker run time of successful jobs.
func (m serverMetrics) runMs() float64 {
	var sum float64
	for _, s := range m.Strategies {
		sum += s.MeanMs * float64(s.Jobs-s.Failed)
	}
	return sum
}

func (s *server) metrics(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := s.cli.Do(req)
	if err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// servedResult mirrors the served result JSON, field for field.
type servedResult struct {
	Strategy               string          `json:"strategy"`
	Shape                  string          `json:"shape"`
	MsgBytes               int             `json:"msg_bytes"`
	Time                   int64           `json:"time"`
	Seconds                float64         `json:"seconds"`
	PeakTime               float64         `json:"peak_time"`
	PercentPeak            float64         `json:"percent_peak"`
	PerNodeMBs             float64         `json:"per_node_mbs"`
	PacketsInjected        int64           `json:"packets_injected"`
	WireBytes              int64           `json:"wire_bytes"`
	PayloadBytes           int64           `json:"payload_bytes"`
	Events                 int64           `json:"events"`
	QueuedEvents           int64           `json:"queued_events"`
	MeanLatencyUnits       float64         `json:"mean_latency_units"`
	MaxLinkUtil            float64         `json:"max_link_util"`
	MeanLinkUtil           float64         `json:"mean_link_util"`
	MeanCPUUtil            float64         `json:"mean_cpu_util"`
	MaxCPUUtil             float64         `json:"max_cpu_util"`
	LastInjectUnits        int64           `json:"last_inject_units"`
	DeadLinkTicks          int64           `json:"dead_link_ticks"`
	Reroutes               int64           `json:"reroutes"`
	TPSLinearDim           string          `json:"tps_linear_dim"`
	CreditPackets          int64           `json:"credit_packets"`
	MaxIntermediateBacklog int             `json:"max_intermediate_backlog"`
	VMeshRows              int             `json:"vmesh_rows"`
	VMeshCols              int             `json:"vmesh_cols"`
	PhaseTimes             []int64         `json:"phase_times"`
	Observed               json.RawMessage `json:"observed"`
}

// asServed renders a direct Result the way the service documents its fields.
func asServed(res collective.Result) (servedResult, error) {
	s := servedResult{
		Strategy: string(res.Strategy), Shape: res.Shape.Canon(), MsgBytes: res.MsgBytes,
		Time: res.Time, Seconds: res.Seconds, PeakTime: res.PeakTime, PercentPeak: res.PercentPeak,
		PerNodeMBs: res.PerNodeMBs, PacketsInjected: res.PacketsInjected, WireBytes: res.WireBytes,
		PayloadBytes: res.PayloadBytes, Events: res.Events, QueuedEvents: res.QueuedEvents,
		MeanLatencyUnits: res.MeanLatencyUnits, MaxLinkUtil: res.MaxLinkUtil, MeanLinkUtil: res.MeanLinkUtil,
		MeanCPUUtil: res.MeanCPUUtil, MaxCPUUtil: res.MaxCPUUtil, LastInjectUnits: res.LastInjectUnits,
		DeadLinkTicks: res.DeadLinkTicks, Reroutes: res.Reroutes, CreditPackets: res.CreditPackets,
		MaxIntermediateBacklog: res.MaxIntermediateBacklog, VMeshRows: res.VMeshRows, VMeshCols: res.VMeshCols,
	}
	if res.Strategy == collective.StratTPS {
		s.TPSLinearDim = string("xyz"[res.TPSLinearDim])
	}
	if len(res.PhaseTimes) > 0 {
		s.PhaseTimes = res.PhaseTimes
	}
	if res.Observed != nil {
		b, err := json.Marshal(res.Observed)
		if err != nil {
			return s, err
		}
		s.Observed = b
	}
	return s, nil
}

// diffFields names the fields in which two results differ.
func diffFields(a, b servedResult) []string {
	var diff []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		same := reflect.DeepEqual(fa, fb)
		if ra, ok := fa.(json.RawMessage); ok {
			var ca, cb bytes.Buffer
			same = json.Compact(&ca, ra) == nil && json.Compact(&cb, fb.(json.RawMessage)) == nil &&
				bytes.Equal(ca.Bytes(), cb.Bytes())
			if len(ra) == 0 && len(fb.(json.RawMessage)) == 0 {
				same = true
			}
		}
		if !same {
			diff = append(diff, va.Type().Field(i).Tag.Get("json"))
		}
	}
	return diff
}

// decodeServed decodes a served result. A field servedResult does not know
// is an error, so that a change to the service's schema fails the checks
// instead of slipping past them.
func decodeServed(raw json.RawMessage) (servedResult, error) {
	var sr servedResult
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return sr, fmt.Errorf("decode served result: %w", err)
	}
	return sr, nil
}

// checkServedResult checks one served result against its request: payload
// conservation and the Eq 2 floor.
func checkServedResult(req collective.Request, raw json.RawMessage) error {
	sr, err := decodeServed(raw)
	if err != nil {
		return err
	}
	shape, err := torus.Parse(sr.Shape)
	if err != nil {
		return err
	}
	if shape != req.Shape || sr.MsgBytes != req.MsgBytes || sr.Strategy != string(req.Strategy) {
		return fmt.Errorf("served %s %v m=%d for %s %v m=%d", sr.Strategy, shape, sr.MsgBytes,
			req.Strategy, req.Shape, req.MsgBytes)
	}
	if err := checkPayload(shape, sr.MsgBytes, sr.PayloadBytes); err != nil {
		return err
	}
	return checkEq2Floor(shape, sr.MsgBytes, sr.Time)
}

// checkServed checks every served result, and that every response for a
// key carries the bytes of the first response for it.
func checkServed(rep *report, recs []record) {
	first := map[string]json.RawMessage{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if err := checkServedResult(r.req, r.result); err != nil {
			rep.problem("%s: %v", r.key, err)
		}
		if f, ok := first[r.key]; !ok {
			first[r.key] = r.result
		} else if !bytes.Equal(f, r.result) {
			rep.problem("%s: %s reply differs from the first reply for its key", r.key, map[bool]string{true: "hit", false: "miss"}[r.hit])
		}
	}
}

// summarizeServe turns the records and the /metrics snapshots taken around
// the timed phase into the workload's metrics.
func summarizeServe(rep *report, recs []record, before, after serverMetrics, blocks []time.Duration, timed time.Duration) {
	var all, hits, misses, observed []time.Duration
	var missSum time.Duration
	var events, queued, packets int64
	answered := map[string]map[int]bool{} // scenario key without shards -> shards values answered
	pairMisses := map[string]int{}
	respelled := 0
	for _, r := range recs {
		rep.attempted++
		if r.err != nil {
			rep.failed++
			rep.problem("%s %s: %v", r.class, r.req.Key(), r.err)
			continue
		}
		all = append(all, r.rtt)
		scen := r.req
		scen.Shards = 0
		canon := scen.Key()
		if r.hit {
			hits = append(hits, r.rtt)
		} else {
			misses = append(misses, r.rtt)
			missSum += r.rtt
			for sh := range answered[canon] {
				if sh != r.req.Shards {
					respelled++
					break
				}
			}
			if r.class == classObserve {
				observed = append(observed, r.rtt)
			}
			if r.class == classPair {
				pairMisses[r.key]++
			}
			if sr, err := decodeServed(r.result); err == nil {
				events += sr.Events
				queued += sr.QueuedEvents
				packets += sr.PacketsInjected
			}
		}
		if answered[canon] == nil {
			answered[canon] = map[int]bool{}
		}
		answered[canon][r.req.Shards] = true
	}
	dup := 0
	for _, n := range pairMisses {
		dup += n - 1
	}
	rep.setOps(blocks, int64(len(all)), timed, all)

	sims := after.SimRuns - before.SimRuns
	runMs := after.runMs() - before.runMs()
	rep.set("serve.hits", float64(after.CacheHits-before.CacheHits))
	rep.set("serve.misses", float64(after.CacheMisses-before.CacheMisses))
	if n := after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses; n > 0 {
		rep.set("serve.hit_ratio", float64(after.CacheHits-before.CacheHits)/float64(n))
	}
	rep.set("serve.respelled_misses", float64(respelled))
	rep.set("serve.dup_inflight_misses", float64(dup))
	rep.set("serve.sim_runs", float64(sims))
	rep.set("serve.miss_ms_p50", ms(percentile(misses, 50)))
	rep.set("serve.hit_ms_p50", ms(percentile(hits, 50)))
	rep.set("observe.miss_ms_p50", ms(percentile(observed, 50)))
	if len(misses) > 0 && sims > 0 {
		rep.set("serve.wait_ms_mean", ms(missSum)/float64(len(misses))-runMs/float64(sims))
	}
	rep.set("network.events", float64(events))
	rep.set("network.queued_events", float64(queued))
	if packets > 0 {
		rep.set("network.queued_per_pkt", float64(queued)/float64(packets))
	}
	if events > 0 {
		rep.set("network.ns_per_event", runMs*1e6/float64(events))
	}
	rep.set("sync.horizon_advances", float64(after.SyncAdv-before.SyncAdv))
	rep.set("sync.blocked_waits", float64(after.SyncWaits-before.SyncWaits))
	rep.set("sync.blocked_wait_s", float64(after.SyncWaitNs-before.SyncWaitNs)/1e9)
	rep.set("sync.cross_shard_events", float64(after.SyncXEvents-before.SyncXEvents))
}

// compareDirect re-runs every distinct served scenario through
// collective.RunRequest and checks that the served result agrees with the
// direct one field for field.
func compareDirect(ctx context.Context, e *env, rep *report, recs []record) {
	type job struct {
		req collective.Request
		key string
		raw json.RawMessage
	}
	seen := map[string]bool{}
	var jobs []job
	for _, r := range recs {
		if r.err == nil && !seen[r.key] {
			seen[r.key] = true
			jobs = append(jobs, job{r.req, r.key, r.result})
		}
	}
	root, closeRoot := e.tr.begin(0, "served-vs-direct", "")
	defer closeRoot()
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				_, end := e.tr.begin(root, "collective.RunRequest", j.key)
				res, err := collective.RunRequest(ctx, j.req)
				end()
				var msg string
				if err != nil {
					msg = fmt.Sprintf("direct run of %s: %v", j.key, err)
				} else if err := checkDirect(res, j.req); err != nil {
					msg = err.Error()
				} else {
					var served servedResult
					direct, err := asServed(res)
					if err == nil {
						served, err = decodeServed(j.raw)
					}
					if err != nil {
						msg = fmt.Sprintf("%s: %v", j.key, err)
					} else if d := diffFields(served, direct); len(d) > 0 {
						msg = fmt.Sprintf("%s: served result differs from a direct run in %v", j.key, d)
					}
				}
				if msg != "" {
					mu.Lock()
					rep.problem("%s", msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		next <- j
	}
	close(next)
	wg.Wait()
}
