package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// allPairsAdjacency is the reference New replaced: every block pair is
// tested for overlap, then every pair for a shared edge.
func allPairsAdjacency(blocks []Block) ([]Adjacency, error) {
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			if overlapArea(blocks[i], blocks[j]) > geomEps {
				return nil, fmt.Errorf("floorplan: blocks %q and %q overlap", blocks[i].Name, blocks[j].Name)
			}
		}
	}
	var adj []Adjacency
	for i := 0; i < len(blocks); i++ {
		for j := i + 1; j < len(blocks); j++ {
			e := sharedEdge(blocks[i], blocks[j])
			if e <= 0 {
				continue
			}
			dx := blocks[i].CenterX() - blocks[j].CenterX()
			dy := blocks[i].CenterY() - blocks[j].CenterY()
			adj = append(adj, Adjacency{A: i, B: j, SharedEdge: e, Distance: math.Hypot(dx, dy)})
		}
	}
	sort.Slice(adj, func(x, y int) bool {
		if adj[x].A != adj[y].A {
			return adj[x].A < adj[y].A
		}
		return adj[x].B < adj[y].B
	})
	return adj, nil
}

// checkSweep asserts New's sweep agrees with the all-pairs reference:
// the same error, or the same adjacencies bit for bit.
func checkSweep(t *testing.T, label string, blocks []Block) {
	t.Helper()
	want, wantErr := allPairsAdjacency(blocks)
	fp, err := New(blocks)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	got := fp.Adjacencies
	if len(got) != len(want) {
		t.Fatalf("%s: %d adjacencies, reference %d", label, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.A != w.A || g.B != w.B ||
			math.Float64bits(g.SharedEdge) != math.Float64bits(w.SharedEdge) ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("%s: adjacency %d = %+v, reference %+v", label, k, g, w)
		}
	}
}

func TestSweepMatchesAllPairsOnBuiltins(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 16, 32, 64, 128, 256} {
		checkSweep(t, fmt.Sprintf("StreamingMPSoC(%d)", n), StreamingMPSoC(n).Blocks)
	}
	for _, runs := range [][]TileRun{
		{{Count: 2, Scale: 1.5}, {Count: 4, Scale: 1}},
		{{Count: 1, Scale: 2}, {Count: 2, Scale: 1}, {Count: 4, Scale: 0.5}},
		{{Count: 4, Scale: 0.75}, {Count: 4, Scale: 1.25}},
	} {
		fp, err := HeteroMPSoC(runs)
		if err != nil {
			t.Fatal(err)
		}
		checkSweep(t, fmt.Sprintf("HeteroMPSoC(%v)", runs), fp.Blocks)
	}
}

// guillotine tiles the rectangle (x, y, w, h) by random recursive cuts
// on a 0.1 mm lattice, producing T-junctions, partial shared edges and
// corner-only contacts.
func guillotine(rng *rand.Rand, x, y, w, h float64, depth int, out []Block) []Block {
	const unit = 1e-4
	cw, ch := int(math.Round(w/unit)), int(math.Round(h/unit))
	if depth == 0 || (cw < 2 && ch < 2) || rng.Intn(5) == 0 {
		return append(out, Block{Name: fmt.Sprintf("b%d", len(out)), X: x, Y: y, W: w, H: h})
	}
	if cw >= 2 && (ch < 2 || rng.Intn(2) == 0) {
		cut := float64(1+rng.Intn(cw-1)) * unit
		out = guillotine(rng, x, y, cut, h, depth-1, out)
		return guillotine(rng, x+cut, y, w-cut, h, depth-1, out)
	}
	cut := float64(1+rng.Intn(ch-1)) * unit
	out = guillotine(rng, x, y, w, cut, depth-1, out)
	return guillotine(rng, x, y+cut, w, h-cut, depth-1, out)
}

// Randomized floorplans: guillotine tilings in shuffled block order,
// some with sub-geomEps jitter, dropped blocks (gaps), or a block
// nudged into its neighbour (overlap errors).
func TestSweepMatchesAllPairsOnRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		blocks := guillotine(rng, 0, 0, float64(4+rng.Intn(30))*1e-4, float64(4+rng.Intn(30))*1e-4, 2+rng.Intn(6), nil)
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		switch trial % 4 {
		case 1: // noise below the contact tolerance
			for i := range blocks {
				blocks[i].X += (rng.Float64() - 0.5) * geomEps / 4
				blocks[i].W += (rng.Float64() - 0.5) * geomEps / 4
			}
		case 2: // gaps
			if len(blocks) > 2 {
				k := rng.Intn(len(blocks))
				blocks = append(blocks[:k], blocks[k+1:]...)
			}
		case 3: // overlap
			k := rng.Intn(len(blocks))
			blocks[k].X -= 0.5e-4
			blocks[k].W += 1e-4
		}
		checkSweep(t, fmt.Sprintf("trial %d (%d blocks)", trial, len(blocks)), blocks)
	}
}
