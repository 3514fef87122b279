package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBarrierReleasesTogether(t *testing.T) {
	const parties, rounds = 3, 200
	n := 0
	bar := newBarrier(parties, func() bool { n++; return n == rounds })
	counts := make([]int, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				last, ok := bar.wait(context.Background())
				if !ok {
					t.Error("barrier wait ended without a release")
					return
				}
				counts[p]++
				if last {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, c := range counts {
		if c != rounds {
			t.Errorf("party %d passed %d barriers, want %d", p, c, rounds)
		}
	}
	if got := len(bar.releases(time.Now())); got != rounds {
		t.Errorf("%d release times, want %d", got, rounds)
	}
}

func TestBarrierHonoursContext(t *testing.T) {
	bar := newBarrier(2, func() bool { return false })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := bar.wait(ctx); ok {
		t.Fatal("a lone party was released")
	}
}

// The workloads run end to end at their smallest: one block or round.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"serve-mix", "reproduce"} {
		t.Run(name, func(t *testing.T) {
			e := &env{seed: 4, seconds: time.Millisecond, procs: 2, name: name}
			rep, err := workloads[name](context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.problems) != 0 || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d failed %d problems %v", rep.attempted, rep.failed, rep.problems)
			}
			for _, m := range endToEnd {
				if m.name == "peak_rss_mb" {
					continue // main adds it
				}
				if v, ok := rep.values[m.name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}
