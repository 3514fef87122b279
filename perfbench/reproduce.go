package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"alltoall/internal/experiments"
)

// reproduceMaxNodes is reproduce's partition budget. At the default 1024
// nodes one regeneration of Table 4 and Figure 6 takes about two minutes on
// two cores, too long to repeat; at 256 the same rows run scaled, Table 4
// still simulates its 8x8x8 pair twice (8x8x8 and 16x16x16 both scale to
// 4x4x4), and the paper's orderings still hold.
const reproduceMaxNodes = 256

// reproduce regenerates Table 4 and Figure 6 through experiments.Catalog with
// one worker, checking the paper's orderings on each table's CSV form, and
// repeats whole regenerations until the timed phase is over.
func reproduce(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	ids := []string{"table4", "fig6"}
	checks := map[string]func([]byte) error{"table4": checkTable4, "fig6": checkFig6}
	metrics := &experiments.Metrics{}
	cfg := experiments.Config{MaxNodes: reproduceMaxNodes, Seed: e.seed, Workers: 1, Metrics: metrics}

	// Set-up: look the runners up and regenerate both at a 64-node budget.
	var runners []experiments.Runner
	setup, err := timeSetup(5, func(bool) error {
		runners = runners[:0]
		for _, id := range ids {
			r, ok := experiments.Catalog[id]
			if !ok {
				return fmt.Errorf("experiment %q not in the catalog", id)
			}
			runners = append(runners, r)
		}
		small := experiments.Config{MaxNodes: 64, Seed: e.seed, Workers: 1}
		for _, r := range runners {
			if _, err := r(small); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.Seconds())

	root, closeRoot := e.tr.begin(0, "reproduce", "")
	var rounds []time.Duration
	perID := map[string][]time.Duration{}
	var jobs int64
	ph := beginPhase(e)
	ev0, q0, pk0, runs0 := metrics.Events(), metrics.QueuedEvents(), metrics.Packets(), metrics.Runs()
	for len(rounds) == 0 || time.Since(ph.start) < e.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		req := fmt.Sprintf("round-%d", len(rounds))
		roundID, closeRound := e.tr.begin(root, "round", req)
		t0 := time.Now()
		for i, id := range ids {
			rep.attempted++
			_, end := e.tr.begin(roundID, "experiments."+id, req)
			t1 := time.Now()
			before := metrics.Runs()
			tab, err := runners[i](cfg)
			perID[id] = append(perID[id], time.Since(t1))
			end()
			if err != nil {
				rep.failed++
				rep.problem("%s: %v", id, err)
				continue
			}
			jobs += metrics.Runs() - before
			var buf bytes.Buffer
			if err := tab.WriteCSV(&buf); err != nil {
				rep.problem("%s CSV: %v", id, err)
				continue
			}
			if err := checks[id](buf.Bytes()); err != nil {
				rep.problem("%v", err)
			}
		}
		rounds = append(rounds, time.Since(t0))
		closeRound()
	}
	timed := ph.end(rep)
	closeRoot()

	// One job is one simulation inside the experiments; per-job times are not
	// visible from outside, so the percentiles are over whole regenerations.
	rep.setOps(rounds, jobs, timed, rounds)
	n := float64(len(rounds))
	events, queued := metrics.Events()-ev0, metrics.QueuedEvents()-q0
	rep.set("network.events", float64(events)/n)
	rep.set("network.queued_events", float64(queued)/n)
	rep.set("network.queued_per_pkt", float64(queued)/float64(metrics.Packets()-pk0))
	rep.set("network.ns_per_event", float64(timed.Nanoseconds())/float64(events))
	rep.set("exp.table4_s", median(perID["table4"]).Seconds())
	rep.set("exp.fig6_s", median(perID["fig6"]).Seconds())
	rep.set("exp.sim_runs", float64(metrics.Runs()-runs0)/n)
	return rep, nil
}
