package main

import (
	"math"
	"testing"
)

const pprofTop = `File: perfbench
Type: cpu
Duration: 12.99s, Total samples = 21.62s (166.44%)
Showing nodes accounting for 21.62s, 100% of 21.62s total
      flat  flat%   sum%        cum   cum%
     2.57s 11.89% 11.89%      3.50s 16.19%  /src/internal/network/calendar.go
     1.50mins 5.87% 25.35%      4.88s 22.57%  /src/internal/network/engine.go
    0.65s  3.01% 45.79%      0.67s  3.10%  /src/internal/network/queue.go (inline)
    0.79s  3.65% 42.78%      0.83s  3.84%  /src/internal/network/coalesce.go
    10ms  0.05% 50.00%      10ms  0.05%  /src/internal/network/shard_async.go
    20ms  0.05% 50.00%      20ms  0.05%  /src/internal/parallel/clock.go
    30ms  0.05% 50.00%      30ms  0.05%  /src/internal/collective/direct.go
    40ms  0.05% 50.00%      40ms  0.05%  /usr/local/go/src/net/http/server.go
    50ms  0.05% 50.00%      50ms  0.05%  /usr/local/go/src/encoding/json/encode.go
    60ms  0.05% 50.00%      60ms  0.05%  /usr/local/go/src/runtime/mgcmark.go
    70ms  0.05% 50.00%      70ms  0.05%  /usr/local/go/src/runtime/proc.go
         0     0% 50.00%      1.2s  0.05%  /src/internal/serve/sched.go
`

func TestCPUBuckets(t *testing.T) {
	got, err := cpuBuckets(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"queue": 2.57 + 0.65, "engine": 90, "coalesce": 0.79, "sync": 0.03, "sources": 0.03,
		"serve": 0.04, "codec": 0.05, "gc": 0.06, "other": 0.07,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := cpuBuckets("no table here"); err == nil {
		t.Error("output without a table accepted")
	}
}
