package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"karma/internal/graph"
	"karma/internal/layer"
	"karma/internal/model"
	"karma/internal/tensor"
)

// refSegments is the map-based segmentation Segments replaced: per
// producer, a map entry counting the unswept consumers of its output,
// with a cut wherever at most maxOpen entries remain.
func refSegments(g *graph.Graph, maxOpen int) []graph.Segment {
	if maxOpen < 1 {
		maxOpen = 1
	}
	nodes := g.Nodes()
	cons := make([][]graph.NodeID, len(nodes))
	for _, n := range nodes {
		for _, in := range n.Inputs {
			cons[in] = append(cons[in], n.ID)
		}
	}
	pending := make(map[graph.NodeID]int)
	var segs []graph.Segment
	var cur []graph.NodeID
	for _, n := range nodes {
		for _, in := range n.Inputs {
			if pending[in]--; pending[in] == 0 {
				delete(pending, in)
			}
		}
		if c := len(cons[n.ID]); c > 0 {
			pending[n.ID] = c
		}
		cur = append(cur, n.ID)
		if len(pending) <= maxOpen {
			segs = append(segs, graph.Segment{Index: len(segs), Nodes: cur})
			cur = nil
		}
	}
	if len(cur) > 0 {
		segs = append(segs, graph.Segment{Index: len(segs), Nodes: cur})
	}
	segOf := make([]int, len(nodes))
	for _, s := range segs {
		for _, id := range s.Nodes {
			segOf[id] = s.Index
		}
	}
	for _, n := range nodes {
		for _, in := range n.Inputs {
			if segOf[n.ID] > segOf[in]+1 {
				s := &segs[segOf[n.ID]]
				s.PinnedIn = append(s.PinnedIn, graph.Edge{From: in, To: n.ID})
			}
		}
	}
	return segs
}

// randomDAG builds a seeded DAG over one vector shape: unary layers and
// adds of two or three inputs drawn from all earlier nodes, repeats
// included (add(x, x) reads one producer twice), so it may have several
// sinks.
func randomDAG(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := graph.New(fmt.Sprint("dag", seed))
	g.Add(&layer.Input{LayerName: "in", Shape: tensor.Vec(8)})
	n := r.Intn(60) + 1
	for i := 1; i < n; i++ {
		pick := func() graph.NodeID {
			if r.Intn(2) == 0 { // mostly local edges, some long skips
				return graph.NodeID(i - 1 - r.Intn(min(i, 3)))
			}
			return graph.NodeID(r.Intn(i))
		}
		name := fmt.Sprint("n", i)
		if r.Intn(3) == 0 {
			ins := []graph.NodeID{pick(), pick()}
			if r.Intn(3) == 0 {
				ins = append(ins, ins[r.Intn(2)])
			}
			g.Add(&layer.Add{LayerName: name}, ins...)
		} else {
			g.Add(&layer.ReLU{LayerName: name}, pick())
		}
	}
	if err := g.Infer(); err != nil {
		t.Fatal(err)
	}
	return g
}

// segmentGraphs returns every graph the segmentation is checked on, with
// the maxOpen values to check it at: the model zoo, the transformer
// shards at mp ∈ {1, 2, 4, 8}, U-Net at maxOpen 1–3, and seeded random
// DAGs.
func segmentGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for _, name := range model.Names() {
		g, err := model.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		out["zoo/"+name] = g
	}
	for _, cfg := range append(model.MegatronConfigs(), model.TuringNLG()) {
		for _, mp := range []int{1, 2, 4, 8} {
			out[fmt.Sprintf("shard/%s/mp%d", cfg.Name, mp)] = model.TransformerShard(cfg, mp).Graph
		}
	}
	out["unet"] = model.UNet()
	for seed := int64(1); seed <= 200; seed++ {
		out[fmt.Sprint("dag/", seed)] = randomDAG(t, seed)
	}
	return out
}

// TestSegmentsMatchMapReference: the consumer-count segmentation cuts
// every graph exactly where the map-based one did, with the same pinned
// edges, at maxOpen 1–3.
func TestSegmentsMatchMapReference(t *testing.T) {
	for name, g := range segmentGraphs(t) {
		for maxOpen := 0; maxOpen <= 3; maxOpen++ {
			got, want := g.Segments(maxOpen), refSegments(g, maxOpen)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s maxOpen=%d: segments differ\n got %+v\nwant %+v", name, maxOpen, got, want)
			}
		}
	}
}

// TestOutputAndValidateMatchConsumers: Output names the last node no
// input references, and Validate counts those sinks, as the consumer
// lists did.
func TestOutputAndValidateMatchConsumers(t *testing.T) {
	for name, g := range segmentGraphs(t) {
		used := make([]bool, g.Len())
		for _, n := range g.Nodes() {
			for _, in := range n.Inputs {
				used[in] = true
			}
		}
		sink, sinks := graph.NodeID(-1), 0
		for id, u := range used {
			if !u {
				sink, sinks = graph.NodeID(id), sinks+1
			}
		}
		if got := g.Output(); got != sink {
			t.Errorf("%s: Output %d, want %d", name, got, sink)
		}
		if err := g.Validate(); (err == nil) != (sinks == 1) {
			t.Errorf("%s: %d sinks, Validate %v", name, sinks, err)
		}
	}
}

// TestSegmentNodesDoNotAlias: the segments share one ID arena, so
// appending to one segment's Nodes must not write into the next one's.
func TestSegmentNodesDoNotAlias(t *testing.T) {
	g := model.UNet()
	segs := g.Segments(2)
	if len(segs) < 2 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	next := append([]graph.NodeID(nil), segs[1].Nodes...)
	segs[0].Nodes = append(segs[0].Nodes, -1)
	if !reflect.DeepEqual(segs[1].Nodes, next) {
		t.Errorf("append to segment 0 changed segment 1: %v, was %v", segs[1].Nodes, next)
	}
}

// BenchmarkSegments times the segmentation profiler.New runs on every
// rung of a capacity ladder: a Turing-NLG shard (MP=4) at maxOpen 1, and
// U-Net, whose skips keep producers open, at maxOpen 3.
func BenchmarkSegments(b *testing.B) {
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		maxOpen int
	}{
		{"turing-shard", model.TransformerShard(model.TuringNLG(), 4).Graph, 1},
		{"unet", model.UNet(), 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.g.Segments(c.maxOpen)
			}
		})
	}
}
