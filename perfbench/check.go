package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"alltoall/internal/torus"
)

// The checks in this file are the benchmark's own: they recompute what a
// result must satisfy from first principles instead of asking the program
// (internal/model, torus.PeakTime) that produced it.

// checkPayload verifies payload conservation: an all-to-all among P nodes
// with m bytes per ordered pair delivers exactly P·(P−1)·m payload bytes.
func checkPayload(shape torus.Shape, m int, payload int64) error {
	p := int64(shape.Size[0] * shape.Size[1] * shape.Size[2])
	if want := p * (p - 1) * int64(m); payload != want {
		return fmt.Errorf("%v m=%d: delivered %d payload bytes, want P(P-1)m = %d", shape, m, payload, want)
	}
	return nil
}

// checkEq2Floor verifies that a run is no faster than the bisection allows.
// Cutting a torus across its longest dimension M (wrapped, even) cuts 2·P/M
// links per direction; P/2 nodes on each side each send m bytes to the P/2
// on the other, so P²m/4 bytes cross at one byte per link per time unit:
// time ≥ P·(M/8)·m, the paper's Eq 2. The benchmark only uses shapes whose
// longest dimension is an even torus dimension.
func checkEq2Floor(shape torus.Shape, m int, t int64) error {
	longest := 0
	for d := 0; d < 3; d++ {
		if shape.Size[d] > shape.Size[longest] {
			longest = d
		}
	}
	big := shape.Size[longest]
	if !shape.Wrap[longest] || big%2 != 0 {
		return fmt.Errorf("%v: longest dimension is not an even torus; Eq 2 floor undefined", shape)
	}
	p := int64(shape.Size[0] * shape.Size[1] * shape.Size[2])
	if floor8 := p * int64(big) * int64(m); 8*t < floor8 {
		return fmt.Errorf("%v m=%d: finished at %d units, below the Eq 2 floor P(M/8)m = %.1f",
			shape, m, t, float64(floor8)/8)
	}
	return nil
}

// parseCSV reads a table's CSV form into its header and rows, skipping the
// note lines report.Table appends after a blank line.
func parseCSV(data []byte) (header []string, rows [][]string, err error) {
	body := data
	if i := bytes.Index(data, []byte("\n\n")); i >= 0 {
		body = data[:i+1]
	}
	r := csv.NewReader(bytes.NewReader(body))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("parse table CSV: %w", err)
	}
	if len(recs) < 2 {
		return nil, nil, fmt.Errorf("parse table CSV: %d records, want a header and rows", len(recs))
	}
	return recs[0], recs[1:], nil
}

// column returns the index of the named column.
func column(header []string, name string) (int, error) {
	for i, h := range header {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table has no column %q (columns %v)", name, header)
}

func cellFloat(row []string, i int) (float64, error) {
	if i >= len(row) {
		return 0, fmt.Errorf("row %v has no column %d", row, i)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(row[i]), 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q: %w", row[i], err)
	}
	return v, nil
}

// checkTable4 checks Table 4's CSV: on the 8x8x8 row (the first; it runs
// scaled under a node budget) the 1-byte TPS time exceeds AR's, as in the
// paper (0.8 vs 0.5 ms), and every time is positive.
func checkTable4(data []byte) error {
	header, rows, err := parseCSV(data)
	if err != nil {
		return err
	}
	ip, err := column(header, "Partition")
	if err != nil {
		return err
	}
	it, err := column(header, "Meas TPS")
	if err != nil {
		return err
	}
	ia, err := column(header, "Meas AR")
	if err != nil {
		return err
	}
	found := false
	for _, row := range rows {
		tps, err := cellFloat(row, it)
		if err != nil {
			return err
		}
		ar, err := cellFloat(row, ia)
		if err != nil {
			return err
		}
		if tps <= 0 || ar <= 0 {
			return fmt.Errorf("table4 %s: non-positive time (TPS %v, AR %v)", row[ip], tps, ar)
		}
		if strings.HasPrefix(row[ip], "8x8x8") {
			found = true
			if !(tps > ar) {
				return fmt.Errorf("table4 %s: TPS 1-byte time %v ms not above AR's %v ms", row[ip], tps, ar)
			}
		}
	}
	if !found {
		return fmt.Errorf("table4: no 8x8x8 row")
	}
	return nil
}

// checkFig6 checks Figure 6's CSV: VMesh's throughput is above AR's at 1 byte
// and below it at 512 bytes (the short-message crossover of §4.2), and no
// %peak exceeds 100.
func checkFig6(data []byte) error {
	header, rows, err := parseCSV(data)
	if err != nil {
		return err
	}
	cols := map[string]int{}
	for _, name := range []string{"MsgBytes", "AR MB/s", "AR %peak", "VMesh MB/s", "VMesh %peak"} {
		if cols[name], err = column(header, name); err != nil {
			return err
		}
	}
	seen := map[int]bool{}
	for _, row := range rows {
		v := map[string]float64{}
		for name, i := range cols {
			if v[name], err = cellFloat(row, i); err != nil {
				return err
			}
		}
		m := int(v["MsgBytes"])
		for _, pk := range []string{"AR %peak", "VMesh %peak"} {
			if v[pk] > 100 || v[pk] <= 0 {
				return fmt.Errorf("fig6 m=%d: %s = %v, want in (0, 100]", m, pk, v[pk])
			}
		}
		switch m {
		case 1:
			if !(v["VMesh MB/s"] > v["AR MB/s"]) {
				return fmt.Errorf("fig6 m=1: VMesh %v MB/s not above AR %v MB/s", v["VMesh MB/s"], v["AR MB/s"])
			}
		case 512:
			if !(v["VMesh MB/s"] < v["AR MB/s"]) {
				return fmt.Errorf("fig6 m=512: VMesh %v MB/s not below AR %v MB/s", v["VMesh MB/s"], v["AR MB/s"])
			}
		}
		seen[m] = true
	}
	if !seen[1] || !seen[512] {
		return fmt.Errorf("fig6: rows for 1 and 512 bytes missing")
	}
	return nil
}
