package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

func TestCheckPayload(t *testing.T) {
	s := torus.New(4, 4, 2) // P = 32
	if err := checkPayload(s, 8, 32*31*8); err != nil {
		t.Fatalf("exact payload rejected: %v", err)
	}
	for _, bad := range []int64{32*31*8 - 1, 32*31*8 + 8, 32 * 32 * 8, 0} {
		if err := checkPayload(s, 8, bad); err == nil {
			t.Errorf("payload %d accepted, want P(P-1)m = %d", bad, 32*31*8)
		}
	}
}

func TestCheckEq2Floor(t *testing.T) {
	s := torus.New(8, 16, 8) // P = 1024, M = 16: floor = 1024*2*m
	const m = 256
	floor := int64(1024 * 16 / 8 * m)
	if err := checkEq2Floor(s, m, floor); err != nil {
		t.Fatalf("time at the floor rejected: %v", err)
	}
	if err := checkEq2Floor(s, m, floor-1); err == nil {
		t.Errorf("time %d below the Eq 2 floor %d accepted", floor-1, floor)
	}
	// A fractional floor: P·M·m not divisible by 8.
	s2 := torus.New(4, 4, 2) // P = 32, M = 4: floor = 16m
	if err := checkEq2Floor(s2, 1, 15); err == nil {
		t.Error("time 15 below the 4x4x2 1-byte floor 16 accepted")
	}
	odd := torus.New(5, 3, 3)
	if err := checkEq2Floor(odd, 1, 1<<40); err == nil {
		t.Error("odd longest dimension accepted; the floor is only derived for even tori")
	}
	mesh := torus.NewMesh(8, 4, 4, false, true, true)
	if err := checkEq2Floor(mesh, 1, 1<<40); err == nil {
		t.Error("mesh longest dimension accepted")
	}
}

const table4CSV = `Partition,Paper TPS,Paper AR,Meas TPS,Meas AR,Paper ratio,Meas ratio
8x8x8 (run 4x4x4),0.8,0.5,0.065,0.055,1.56,1.18
8x8x16 (run 4x4x8),1.6,1.2,0.132,0.110,1.31,1.20

the sign flip matters
`

func TestCheckTable4(t *testing.T) {
	if err := checkTable4([]byte(table4CSV)); err != nil {
		t.Fatalf("good table rejected: %v", err)
	}
	bad := strings.Replace(table4CSV, "0.065,0.055", "0.050,0.055", 1)
	if err := checkTable4([]byte(bad)); err == nil {
		t.Error("TPS below AR on 8x8x8 accepted")
	}
	noRow := strings.Replace(table4CSV, "8x8x8 (run 4x4x4)", "4x4x4", 1)
	if err := checkTable4([]byte(noRow)); err == nil {
		t.Error("table without its 8x8x8 row accepted")
	}
	if err := checkTable4([]byte("Partition,Meas AR\n8x8x8,1\n")); err == nil {
		t.Error("table without a Meas TPS column accepted")
	}
}

const fig6CSV = `MsgBytes,AR MB/s,AR %peak,VMesh MB/s,VMesh %peak
1,1.1,0.4,1.8,0.6
64,58.5,19.3,49.6,16.3
512,197.5,65.0,60.8,20.0
`

func TestCheckFig6(t *testing.T) {
	if err := checkFig6([]byte(fig6CSV)); err != nil {
		t.Fatalf("good figure rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"VMesh not above AR at 1 B":   strings.Replace(fig6CSV, "1,1.1,0.4,1.8", "1,1.9,0.4,1.8", 1),
		"VMesh not below AR at 512 B": strings.Replace(fig6CSV, "512,197.5,65.0,60.8", "512,50.0,65.0,60.8", 1),
		"%peak above 100":             strings.Replace(fig6CSV, "65.0", "100.5", 1),
		"512 B row missing":           strings.Replace(fig6CSV, "512,197.5,65.0,60.8,20.0\n", "", 1),
	} {
		if err := checkFig6([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// servedFor runs req directly and encodes it the way the service does.
func servedFor(t *testing.T, req collective.Request) (collective.Result, json.RawMessage) {
	t.Helper()
	res, err := collective.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := asServed(res)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

func TestCheckServedResult(t *testing.T) {
	req := collective.Request{Strategy: collective.StratTPS, Shape: torus.New(4, 4, 2), MsgBytes: 64, Seed: 3}
	_, raw := servedFor(t, req)
	if err := checkServedResult(req, raw); err != nil {
		t.Fatalf("real result rejected: %v", err)
	}
	var sr servedResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*servedResult){
		"payload short":   func(s *servedResult) { s.PayloadBytes -= 64 },
		"below the floor": func(s *servedResult) { s.Time = 16*64 - 1 },
		"other shape":     func(s *servedResult) { s.Shape = "4x4x4" },
	} {
		bad := sr
		mutate(&bad)
		b, _ := json.Marshal(bad)
		if err := checkServedResult(req, b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	extra := append(raw[:len(raw)-1:len(raw)-1], `,"new_field":1}`...)
	if err := checkServedResult(req, extra); err == nil {
		t.Error("result with a field the benchmark does not know accepted")
	}
}

// Every timed reply is compared with the first reply for its key, and a hot
// key's first reply is the warm-up miss that put it in the LRU.
func TestCheckServedReplay(t *testing.T) {
	req := collective.Request{Strategy: collective.StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 8, Seed: 1}
	_, raw := servedFor(t, req)
	miss := record{class: "warm-up", req: req, key: req.Key(), result: raw}
	hit := record{class: classHot, req: req, key: req.Key(), hit: true, end: time.Now(), result: raw}
	checked, timed := mergeRecords([]record{miss}, [][]record{{hit}, {hit}})
	if len(timed) != 2 {
		t.Fatalf("%d timed records, want 2", len(timed))
	}
	rep := newReport()
	checkServed(rep, checked)
	if len(rep.problems) != 0 {
		t.Fatalf("identical replay flagged: %v", rep.problems)
	}
	sr, err := decodeServed(raw)
	if err != nil {
		t.Fatal(err)
	}
	sr.MeanLatencyUnits += 1
	hit.result, _ = json.Marshal(sr)
	checked, _ = mergeRecords([]record{miss}, [][]record{{hit}, {hit}})
	rep = newReport()
	checkServed(rep, checked)
	if len(rep.problems) == 0 {
		t.Error("timed hits whose bytes differ from the warm-up miss accepted")
	}
}

func TestServedAgreesWithDirect(t *testing.T) {
	req := collective.Request{Strategy: collective.StratVMesh, Shape: torus.New(4, 4, 2), MsgBytes: 8, Seed: 5, Observe: true}
	res, raw := servedFor(t, req)
	var served servedResult
	if err := json.Unmarshal(raw, &served); err != nil {
		t.Fatal(err)
	}
	direct, err := asServed(res)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffFields(served, direct); len(d) != 0 {
		t.Fatalf("round trip differs in %v", d)
	}
	served.Events++
	served.Observed = json.RawMessage(`{}`)
	d := diffFields(served, direct)
	if strings.Join(d, ",") != "events,observed" {
		t.Errorf("diffFields = %v, want [events observed]", d)
	}
}
