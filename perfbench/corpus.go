package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

// The serve-mix corpus. Each client replays its own endless stream of
// blocks; a block is a seeded shuffle of a fixed mix of request classes, so
// every block asks for the same kind of work and a run is a whole number of
// blocks. Fresh scenarios walk seeded permutations of a grid of every
// strategy on every corpus cell, each with a new simulation seed, so each is
// new to the server.

// corpusCells pairs each partition (32 to 128 nodes, longest dimension an
// even torus) with its message sizes (1 B to 1 KiB). Larger partitions get
// only the shorter messages, so that no single miss costs more than about a
// tenth of a second and the misses of a block average out.
var corpusCells = []struct {
	shape torus.Shape
	sizes []int
}{
	{torus.New(4, 4, 2), []int{1, 64, 1024}},
	{torus.New(4, 4, 4), []int{1, 8, 64, 256}},
	{torus.New(8, 4, 2), []int{1, 8, 64, 256}},
	{torus.New(4, 4, 8), []int{1, 8, 64}},
	{torus.New(8, 4, 4), []int{1, 8, 64}},
}

var corpusStrategies = collective.Strategies()

// Request classes and their count per block and client.
const (
	classHot     = "hot"     // Zipf-skewed pick from the hot set: an LRU hit
	classCold    = "cold"    // fresh scenario: always simulates
	classRespell = "respell" // a cold scenario of this block re-sent with only shards 0 -> 1
	classObserve = "observe" // fresh scenario with observe: true
	classPair    = "pair"    // fresh scenario every client sends at once, released by a barrier

	blockHot     = 24
	blockCold    = 4
	blockRespell = 2
	blockObserve = 1
	blockLen     = blockHot + blockCold + blockRespell + blockObserve + 1 // + the pair, always last

	hotZipfS = 1.1 // Zipf exponent of the hot-set popularity
)

// Seed streams keep the scenario seeds of different classes apart.
const (
	streamHot = iota + 1
	streamCold
	streamObserve
	streamPair
	streamOrder
	streamBlock
)

// item is one corpus request.
type item struct {
	Client  int                `json:"client"`
	Block   int                `json:"block"`
	Seq     int                `json:"seq"` // position in the client's stream
	Class   string             `json:"class"`
	Request collective.Request `json:"request"`
}

// corpus generates the per-client request streams for one seed.
type corpus struct {
	seed    uint64
	clients int
	hot     []collective.Request // in popularity order
	zipfCDF []float64
}

// grid lists every (strategy, partition, size) a fresh scenario can take.
var grid = func() []collective.Request {
	var g []collective.Request
	for _, c := range corpusCells {
		for _, m := range c.sizes {
			for _, st := range corpusStrategies {
				g = append(g, collective.Request{Strategy: st, Shape: c.shape, MsgBytes: m})
			}
		}
	}
	return g
}()

func newCorpus(seed uint64, clients int) *corpus {
	c := &corpus{seed: seed, clients: clients}
	// The hot set puts every strategy on every partition once; sizes rotate
	// through the partition's sizes.
	rot := int(mix(seed, streamHot, math.MaxUint32) % 12) // 12: a multiple of every size count
	for ci, cell := range corpusCells {
		for ti, st := range corpusStrategies {
			c.hot = append(c.hot, collective.Request{Strategy: st, Shape: cell.shape,
				MsgBytes: cell.sizes[(ci+ti+rot)%len(cell.sizes)],
				Seed:     mix(seed, streamHot, uint64(len(c.hot)))})
		}
	}
	r := rand.New(rand.NewPCG(seed, streamOrder))
	r.Shuffle(len(c.hot), func(i, j int) { c.hot[i], c.hot[j] = c.hot[j], c.hot[i] })
	var sum float64
	for k := range c.hot {
		sum += 1 / math.Pow(float64(k+1), hotZipfS)
		c.zipfCDF = append(c.zipfCDF, sum)
	}
	for k := range c.zipfCDF {
		c.zipfCDF[k] /= sum
	}
	return c
}

// mix hashes its inputs into a scenario seed (SplitMix64 finalizer).
func mix(seed uint64, stream, k uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream<<56 + k + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fresh returns the k-th scenario of a cold stream: the grid is walked in a
// seeded permutation per pass, and the simulation seed is new every time.
func (c *corpus) fresh(stream, k uint64) collective.Request {
	g := uint64(len(grid))
	perm := rand.New(rand.NewPCG(mix(c.seed, stream, math.MaxUint32), k/g)).Perm(int(g))
	req := grid[perm[k%g]]
	req.Seed = mix(c.seed, stream, k)
	return req
}

// block returns client's b-th block. The pair scenario, the same for every
// client, is always last.
func (c *corpus) block(client, b int) []item {
	r := rand.New(rand.NewPCG(mix(c.seed, streamBlock, uint64(b)), uint64(client)))
	var reqs []item
	add := func(class string, req collective.Request) { reqs = append(reqs, item{Class: class, Request: req}) }
	for i := 0; i < blockHot; i++ {
		u := r.Float64()
		k := 0
		for k < len(c.zipfCDF)-1 && c.zipfCDF[k] < u {
			k++
		}
		add(classHot, c.hot[k])
	}
	for i := 0; i < blockCold; i++ {
		add(classCold, c.fresh(streamCold, uint64((b*c.clients+client)*blockCold+i)))
	}
	for i := 0; i < blockObserve; i++ {
		req := c.fresh(streamObserve, uint64((b*c.clients+client)*blockObserve+i))
		req.Observe = true
		add(classObserve, req)
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	// Re-send the first cold scenarios with shards switched, each at a random
	// place after the original.
	respelled := 0
	for i := 0; i < len(reqs) && respelled < blockRespell; i++ {
		if reqs[i].Class != classCold {
			continue
		}
		re := item{Class: classRespell, Request: reqs[i].Request}
		re.Request.Shards = 1
		at := i + 1 + r.IntN(len(reqs)-i)
		reqs = append(reqs[:at], append([]item{re}, reqs[at:]...)...)
		respelled++
	}
	add(classPair, c.fresh(streamPair, uint64(b)))
	for i := range reqs {
		reqs[i].Client, reqs[i].Block, reqs[i].Seq = client, b, b*blockLen+i
	}
	return reqs
}

// printedBlocks is how many blocks of each client's stream writeCorpus
// prints: every block has the same make-up, so two show the mix and how
// blocks differ.
const printedBlocks = 2

// writeCorpus prints the first blocks of every client's stream as JSON lines:
// the hot set first (the warm-up pass), then the blocks.
func writeCorpus(w io.Writer, seed uint64, clients int) error {
	c := newCorpus(seed, clients)
	enc := json.NewEncoder(w)
	for i, req := range c.hot {
		if err := enc.Encode(item{Client: -1, Block: -1, Seq: i, Class: "warm-up", Request: req}); err != nil {
			return fmt.Errorf("print corpus: %w", err)
		}
	}
	for client := 0; client < clients; client++ {
		for b := 0; b < printedBlocks; b++ {
			for _, it := range c.block(client, b) {
				if err := enc.Encode(it); err != nil {
					return fmt.Errorf("print corpus: %w", err)
				}
			}
		}
	}
	return nil
}
