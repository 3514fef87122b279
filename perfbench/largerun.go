package main

import (
	"context"
	"fmt"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// largeMsgBytes is large-run's per-pair payload: with the 48-byte software
// header, a full 256-byte packet plus a minimum-size one per pair.
const largeMsgBytes = 256

// largeRun simulates one AR all-to-all on the asymmetric 8x16x8 torus (Table
// 2's 16x32x16 row at default scale) with shards = host CPUs and every other
// engine setting at its default, repeating whole simulations until the timed
// phase is over.
func largeRun(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	req := collective.Request{Strategy: collective.StratAR, Shape: torus.New(8, 16, 8),
		MsgBytes: largeMsgBytes, Seed: e.seed, Shards: e.procs}

	// Set-up: validate the request and run AR at the same size on a 128-node
	// partition, so code and allocator are warm before the first timed run.
	// The warm-up runs on the serial engine: on small partitions the async
	// engine's blocked waits swing its time by half between runs, which would
	// leave set-up time unmeasurable.
	warm := req
	warm.Shape, warm.Shards = torus.New(4, 8, 4), 1
	setup, err := timeSetup(5, func(bool) error {
		if err := req.Validate(); err != nil {
			return err
		}
		res, err := collective.RunRequest(ctx, warm)
		if err != nil {
			return err
		}
		return checkDirect(res, warm)
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.Seconds())

	root, closeRoot := e.tr.begin(0, "large-run", "")
	var ops []time.Duration
	var events, queued, packets int64
	var ss network.SyncStats
	ph := beginPhase(e)
	for rep.attempted == 0 || time.Since(ph.start) < e.seconds {
		var one network.SyncStats
		rep.attempted++
		_, end := e.tr.begin(root, "collective.RunRequest", fmt.Sprintf("op-%d", len(ops)))
		t0 := time.Now()
		res, err := collective.RunRequest(ctx, req, func(o *collective.Options) { o.SyncStats = &one })
		d := time.Since(t0)
		end()
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			rep.failed++
			rep.problem("run %d: %v", len(ops), err)
			continue
		}
		if err := checkDirect(res, req); err != nil {
			rep.problem("%v", err)
		}
		ops = append(ops, d)
		events += res.Events
		queued += res.QueuedEvents
		packets += res.PacketsInjected
		ss.HorizonAdvances += one.HorizonAdvances
		ss.BlockedWaits += one.BlockedWaits
		ss.BlockedWaitNs += one.BlockedWaitNs
		ss.CrossShardEvents += one.CrossShardEvents
	}
	timed := ph.end(rep)
	closeRoot()
	if len(ops) == 0 {
		return nil, fmt.Errorf("no simulation completed: %v", rep.problems)
	}

	rep.setOps(ops, int64(len(ops)), timed, ops)
	n := float64(len(ops))
	rep.set("network.events", float64(events)/n)
	rep.set("network.queued_events", float64(queued)/n)
	rep.set("network.queued_per_pkt", float64(queued)/float64(packets))
	rep.set("network.ns_per_event", float64(timed.Nanoseconds())/float64(events))
	rep.set("sync.horizon_advances", float64(ss.HorizonAdvances)/n)
	rep.set("sync.blocked_waits", float64(ss.BlockedWaits)/n)
	rep.set("sync.blocked_wait_s", float64(ss.BlockedWaitNs)/1e9/n)
	rep.set("sync.cross_shard_events", float64(ss.CrossShardEvents)/n)
	return rep, nil
}

// checkDirect applies the benchmark's result checks to a Result returned by
// collective.RunRequest for req.
func checkDirect(res collective.Result, req collective.Request) error {
	if res.Shape != req.Shape || res.MsgBytes != req.MsgBytes || res.Strategy != req.Strategy {
		return fmt.Errorf("result is for %s %v m=%d, asked for %s %v m=%d",
			res.Strategy, res.Shape, res.MsgBytes, req.Strategy, req.Shape, req.MsgBytes)
	}
	if err := checkPayload(req.Shape, req.MsgBytes, res.PayloadBytes); err != nil {
		return err
	}
	return checkEq2Floor(req.Shape, req.MsgBytes, res.Time)
}
