package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestCorpusSameSeedSameSequence(t *testing.T) {
	const clients, blocks = 3, 4
	a, b := newCorpus(7, clients), newCorpus(7, clients)
	if !reflect.DeepEqual(a.hot, b.hot) {
		t.Fatal("hot set differs between two corpora of one seed")
	}
	for c := 0; c < clients; c++ {
		for blk := 0; blk < blocks; blk++ {
			if !reflect.DeepEqual(a.block(c, blk), b.block(c, blk)) {
				t.Fatalf("client %d block %d differs between two corpora of one seed", c, blk)
			}
		}
	}
	// Generation order must not matter either: a block asked for out of
	// order is the same block.
	if !reflect.DeepEqual(a.block(2, 3), newCorpus(7, clients).block(2, 3)) {
		t.Fatal("block depends on what was generated before it")
	}
	var x, y bytes.Buffer
	if err := writeCorpus(&x, 7, clients); err != nil {
		t.Fatal(err)
	}
	if err := writeCorpus(&y, 7, clients); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatal("printed corpus differs between two runs of one seed")
	}
	var z bytes.Buffer
	if err := writeCorpus(&z, 8, clients); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(x.Bytes(), z.Bytes()) {
		t.Fatal("seeds 7 and 8 print the same corpus")
	}
}

func TestCorpusBlockMakeUp(t *testing.T) {
	const clients = 2
	c := newCorpus(3, clients)
	seen := map[string]bool{}
	for blk := 0; blk < 50; blk++ {
		var pair []item
		for cl := 0; cl < clients; cl++ {
			items := c.block(cl, blk)
			if len(items) != blockLen {
				t.Fatalf("block has %d items, want %d", len(items), blockLen)
			}
			count := map[string]int{}
			for i, it := range items {
				count[it.Class]++
				if err := it.Request.Validate(); err != nil {
					t.Fatalf("invalid request: %v", err)
				}
				if err := checkEq2Floor(it.Request.Shape, 1, 1<<40); err != nil {
					t.Fatalf("corpus partition without an Eq 2 floor: %v", err)
				}
				if p := it.Request.Shape.P(); p < 32 || p > 128 {
					t.Fatalf("partition of %d nodes, want 32..128", p)
				}
				switch it.Class {
				case classCold, classObserve, classPair:
					if seen[it.Request.Key()] && it.Class != classPair {
						t.Fatalf("fresh scenario %s repeats", it.Request.Key())
					}
					seen[it.Request.Key()] = true
				case classRespell:
					orig := it.Request
					orig.Shards = 0
					found := false
					for _, prev := range items[:i] {
						found = found || (prev.Class == classCold && prev.Request == orig)
					}
					if !found || it.Request.Shards != 1 {
						t.Fatalf("respelled request %s does not follow its original", it.Request.Key())
					}
				}
			}
			want := map[string]int{classHot: blockHot, classCold: blockCold, classRespell: blockRespell,
				classObserve: blockObserve, classPair: 1}
			if !reflect.DeepEqual(count, want) {
				t.Fatalf("block classes %v, want %v", count, want)
			}
			if last := items[len(items)-1]; last.Class != classPair {
				t.Fatalf("block ends with %s, want the pair", last.Class)
			}
			pair = append(pair, items[len(items)-1])
		}
		if pair[0].Request != pair[1].Request {
			t.Fatalf("block %d: clients send different pair scenarios", blk)
		}
	}
}
