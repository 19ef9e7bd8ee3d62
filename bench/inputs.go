package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
)

// The datasets are fixed, as the paper's are: the graphs come from
// internal/datagen under one generator seed (datasetSeed), so every run
// measures the same topology, timestamps and weights. What -seed decides is
// everything else a user's session varies: the row order of the CSV files
// (and with it every edge index, matrix column and batch the program builds),
// the order the perturbation views are written in, which keys the HTTP
// clients repeat and extend, and the mutation batches. The same seed gives
// the same bytes; the program under test receives only those files and
// requests.
//
// The topology is not seeded because weighted shortest paths are chaotic at
// the sizes a 10-second run affords: redrawing only the edge weights of the
// 10k-edge temporal graph moved similar.diff's mpsp time between 486 and 759
// ms and its heap traffic between 665 and 873 MB over six seeds, which would
// push every regression bound to the contract's maximum and hide the 10 %
// changes the benchmark exists to show (see README.md, "Why the datasets are
// fixed").

// datasetSeed is the generator seed of every dataset.
const datasetSeed = 2021

// days is the timestamp range of the temporal graphs; the window predicates
// below are written against it.
const days = 128

// scale holds every size a workload depends on. full is what BENCHMARK.json
// measures; smoke runs each workload end to end in well under a second for
// the tests.
type scale struct {
	name string
	// Temporal graph shared by similar.diff and disjoint.*.
	tNodes, tEdges int
	// mixed.adaptive's smaller temporal graph.
	aNodes, aEdges int
	// create.ordered's community graph.
	cNodes, cIntra, cInter int
	// mutate.incremental: graph, rounds per pass, and per-round batch sizes
	// as shares of the initially loaded edges.
	mNodes, mEdges, mRounds int
	// serve.mixed: graph and requests per client per pass (whole cycles of
	// the request mix, so every pass has the same composition).
	sNodes, sEdges, sRequests int
	// PageRank iterations (the suite's most expensive member).
	prIters uint32
}

var (
	fullScale = scale{
		name:   "full",
		tNodes: 1000, tEdges: 10000,
		aNodes: 1500, aEdges: 9000,
		cNodes: 3000, cIntra: 5, cInter: 1,
		mNodes: 2500, mEdges: 16000, mRounds: 50,
		sNodes: 1500, sEdges: 9000, sRequests: 60,
		prIters: 5,
	}
	smokeScale = scale{
		name:   "smoke",
		tNodes: 40, tEdges: 200,
		aNodes: 40, aEdges: 200,
		cNodes: 60, cIntra: 3, cInter: 1,
		mNodes: 150, mEdges: 900, mRounds: 3,
		sNodes: 100, sEdges: 600, sRequests: 20,
		prIters: 3,
	}
)

// csvGraph is one generated input: the CSV bytes and the generated graph
// they were rendered from (the benchmark's own oracle reads the latter).
type csvGraph struct {
	name         string
	nodes, edges []byte
	g            *graph.Graph
}

// hash identifies the input bytes; two workloads that print the same hash
// ran byte-identical inputs.
func (c *csvGraph) hash() string {
	h := sha256.New()
	h.Write(c.nodes)
	h.Write([]byte{0})
	h.Write(c.edges)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// write puts the CSV files under dir and returns their paths.
func (c *csvGraph) write(dir string) (nodesPath, edgesPath string, err error) {
	nodesPath = filepath.Join(dir, c.name+".nodes.csv")
	edgesPath = filepath.Join(dir, c.name+".edges.csv")
	if err := os.WriteFile(nodesPath, c.nodes, 0o644); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(edgesPath, c.edges, 0o644); err != nil {
		return "", "", err
	}
	return nodesPath, edgesPath, nil
}

// shuffleEdges permutes the graph's edge rows with the seed: rows [0, keep)
// among themselves and rows [keep, end) among themselves, so the set of
// loaded edges and the set held back as mutations do not depend on the seed.
func shuffleEdges(g *graph.Graph, seed int64, keep int) {
	r := rand.New(rand.NewSource(seed))
	swap := func(i, j int) {
		g.Srcs[i], g.Srcs[j] = g.Srcs[j], g.Srcs[i]
		g.Dsts[i], g.Dsts[j] = g.Dsts[j], g.Dsts[i]
		for _, c := range g.EdgeProps.Cols {
			c.Ints[i], c.Ints[j] = c.Ints[j], c.Ints[i]
		}
	}
	r.Shuffle(keep, swap)
	r.Shuffle(g.NumEdges()-keep, func(i, j int) { swap(keep+i, keep+j) })
}

// renderCSV writes a generated graph in the loader's format. Node IDs are
// written densely in order, so the loader's internal IDs equal the
// generator's. Only the first keep edges are written (the rest of a temporal
// graph arrives later as mutations).
func renderCSV(name string, g *graph.Graph, keep int) *csvGraph {
	var nb, eb bytes.Buffer
	nb.WriteString("id")
	if g.NodeProps != nil {
		for i, n := range g.NodeProps.Names {
			fmt.Fprintf(&nb, ",%s:%s", n, g.NodeProps.Cols[i].Type)
		}
	}
	nb.WriteByte('\n')
	var num []byte
	for v := 0; v < g.NumNodes; v++ {
		num = strconv.AppendInt(num[:0], int64(v), 10)
		nb.Write(num)
		if g.NodeProps != nil {
			for _, c := range g.NodeProps.Cols {
				nb.WriteByte(',')
				nb.WriteString(c.Value(v).String())
			}
		}
		nb.WriteByte('\n')
	}
	eb.WriteString("src,dst")
	for i, n := range g.EdgeProps.Names {
		fmt.Fprintf(&eb, ",%s:%s", n, g.EdgeProps.Cols[i].Type)
	}
	eb.WriteByte('\n')
	for e := 0; e < keep; e++ {
		num = strconv.AppendUint(num[:0], g.Srcs[e], 10)
		num = append(num, ',')
		num = strconv.AppendUint(num, g.Dsts[e], 10)
		for _, c := range g.EdgeProps.Cols {
			num = append(num, ',')
			num = strconv.AppendInt(num, c.Ints[e], 10)
		}
		num = append(num, '\n')
		eb.Write(num)
	}
	return &csvGraph{name: name, nodes: nb.Bytes(), edges: eb.Bytes(), g: g}
}

// temporalInput generates the SO-like temporal graph (edge properties ts and
// duration). loadShare < 1 keeps the tail of the edge stream out of the CSV.
func temporalInput(name string, seed int64, nodes, edges int, loadShare float64) *csvGraph {
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: nodes, Edges: edges, Days: days, Seed: datasetSeed})
	keep := int(float64(edges) * loadShare)
	shuffleEdges(g, seed, keep)
	return renderCSV(name, g, keep)
}

// communityInput generates the planted-partition graph (node property
// community, 12 communities) of the paper's perturbation experiments.
func communityInput(name string, seed int64, sc scale) *csvGraph {
	g := datagen.Community(datagen.CommunityConfig{
		Nodes: sc.cNodes, Communities: 12, IntraDeg: sc.cIntra, InterDeg: sc.cInter, Seed: datasetSeed,
	})
	shuffleEdges(g, seed, g.NumEdges())
	return renderCSV(name, g, g.NumEdges())
}

// window is one view of a temporal collection: lo <= ts < hi, where lo < 0
// means no lower bound and hi < 0 no upper bound.
type window struct{ lo, hi int }

func (w window) pred() string {
	switch {
	case w.lo < 0:
		return fmt.Sprintf("ts < %d", w.hi)
	case w.hi < 0:
		return fmt.Sprintf("ts >= %d", w.lo)
	}
	return fmt.Sprintf("ts >= %d and ts < %d", w.lo, w.hi)
}

func (w window) contains(ts int64) bool {
	return (w.lo < 0 || ts >= int64(w.lo)) && (w.hi < 0 || ts < int64(w.hi))
}

// expanding is the similar collection: k windows ts < 64+4i, each adding
// about 3 % of the graph to its predecessor.
func expanding(k int) []window {
	ws := make([]window, k)
	for i := range ws {
		ws[i] = window{-1, days/2 + 4*i}
	}
	return ws
}

// disjoint is the dissimilar collection: k non-overlapping windows covering
// the whole timestamp range.
func disjoint(k int) []window {
	ws := make([]window, k)
	for i := range ws {
		ws[i] = window{i * days / k, (i + 1) * days / k}
	}
	return ws
}

// rolling is mutate.incremental's collection: k windows of half the loaded
// range sliding forward, the last one open-ended so newly inserted edges
// (which carry the latest timestamps) land in the final view.
func rolling(k, loadedDays int) []window {
	ws := make([]window, k)
	width, step := loadedDays/2, loadedDays/2/(k-1)
	for i := range ws {
		ws[i] = window{i * step, i*step + width}
	}
	ws[k-1].hi = -1
	return ws
}

// collectionGVDL renders a create-view-collection statement; view i is
// named w<i>, so collections over a common window prefix share a
// difference-stream prefix (what suffix replay keys on).
func collectionGVDL(name, on string, ws []window) string {
	var b strings.Builder
	fmt.Fprintf(&b, "create view collection %s on %s", name, on)
	for i, w := range ws {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n  [w%d: %s]", i, w.pred())
	}
	b.WriteByte('\n')
	return b.String()
}

func viewGVDL(name, on string, w window) string {
	return fmt.Sprintf("create view %s on %s edges where %s\n", name, on, w.pred())
}

// combinations enumerates the k-subsets of {0..n-1} in lexicographic order.
func combinations(n, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= n-(k-len(cur)); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// perturbation is the paper's §7.4 contingency collection: one view per
// k-subset of the n largest communities, keeping the edges with neither
// endpoint in the subset. The subsets are written in a seeded shuffle, so
// the ordering optimizer has an order to find.
func perturbation(seed int64, n, k int) [][]int {
	subsets := combinations(n, k)
	rand.New(rand.NewSource(seed)).Shuffle(len(subsets), func(i, j int) {
		subsets[i], subsets[j] = subsets[j], subsets[i]
	})
	return subsets
}

func perturbationGVDL(name, on string, subsets [][]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "create view collection %s on %s", name, on)
	for i, sub := range subsets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n  [rm")
		for _, c := range sub {
			fmt.Fprintf(&b, "_%d", c)
		}
		b.WriteString(": ")
		for j, c := range sub {
			if j > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "src.community != %d and dst.community != %d", c, c)
		}
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	return b.String()
}

// perturbationSizes is the benchmark's own count of each view's edges, the
// oracle create.ordered's collections are checked against.
func perturbationSizes(g *graph.Graph, subsets [][]int) []int {
	ci, _ := g.NodeProps.ColumnIndex("community")
	comm := g.NodeProps.Cols[ci].Ints
	sizes := make([]int, len(subsets))
	for i, sub := range subsets {
		var mask uint32
		for _, c := range sub {
			mask |= 1 << uint(c)
		}
		for e := range g.Srcs {
			if mask&(1<<uint(comm[g.Srcs[e]])) == 0 && mask&(1<<uint(comm[g.Dsts[e]])) == 0 {
				sizes[i]++
			}
		}
	}
	return sizes
}

// hashStrings identifies a request schedule the way csvGraph.hash identifies
// input files.
func hashStrings(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
