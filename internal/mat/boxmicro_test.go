package mat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Micro-benchmarks for the box screen, on bags and a concept shaped like
// the vector workloads' (bench/corpus.go): 100 dimensions, of which the
// boxes cover the leading 64 as the index's do; per bag one instance near
// its category's centre and nine of clutter drawn from three of 32 shared
// prototypes; weights exactly 0 or 1, about half each; and the cutoff at
// the 20th-best exact bag distance, where a warm top-20 scan sits. Each
// reports ns per bag. Tiles is the served screen over a corpus-sized tile
// array, TilesHot the same over a few L1-resident tiles, and Oracle the
// per-bag BoxBoundExceeds the scalar tier runs lane by lane.

const (
	microDim, microBoxDims, microInst = 100, 64, 10
	microCats, microProtos            = 13, 32
)

// microCorpus returns the concept, the cutoff and nBags bags' boxes, both
// per bag (BoxBoundExceeds' layout) and in tiles.
func microCorpus(nBags int) (p, w []float64, thr float64, boxes, tiles []float32) {
	r := rand.New(rand.NewSource(7))
	gauss := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, microDim)
			for k := range out[i] {
				out[i][k] = r.NormFloat64() * 2
			}
		}
		return out
	}
	centers, protos := gauss(microCats), gauss(microProtos)
	p, w = slices.Clone(centers[0]), make([]float64, microDim)
	for k := range w {
		w[k] = float64(r.Intn(2))
	}
	stride := BoxStride * microBoxDims
	boxes = make([]float32, nBags*stride)
	tiles = make([]float32, TileLanes(nBags)*stride)
	rows := make([]float64, microInst*microDim)
	dists := make([]float64, nBags)
	for b := range nBags {
		kinds := [3]int{r.Intn(microProtos), r.Intn(microProtos), r.Intn(microProtos)}
		for j := range microInst {
			base := centers[b%microCats]
			if j > 0 {
				base = protos[kinds[r.Intn(3)]]
			}
			for k := range microDim {
				rows[j*microDim+k] = base[k] + r.NormFloat64()*0.4
			}
		}
		box := boxes[b*stride : (b+1)*stride]
		PackBagSketch(microDim, rows, box)
		PackBagSketchLane(microDim, rows, tiles[b/TileRows*TileRows*stride:(b/TileRows+1)*TileRows*stride], b%TileRows)
		dists[b] = MinWeightedSqDistRows(p, w, rows, math.Inf(1), false)
	}
	slices.Sort(dists)
	return p, w, dists[min(20, nBags)-1], boxes, tiles
}

// microSink keeps the benchmarks' screen decisions live.
var microSink uint8

func benchTiles(b *testing.B, nBags int) {
	p, w, thr, _, tiles := microCorpus(nBags)
	tileLen := TileRows * BoxStride * microBoxDims
	b.ResetTimer()
	for range b.N {
		for t := 0; t < len(tiles); t += tileLen {
			microSink ^= BoxTileExceeds(p, w, tiles[t:t+tileLen], thr, 0)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nBags), "ns/bag")
}

func BenchmarkBoxScreenTiles(b *testing.B) { benchTiles(b, 20000) }

func BenchmarkBoxScreenTilesHot(b *testing.B) { benchTiles(b, 64) }

func BenchmarkBoxScreenOracle(b *testing.B) {
	const nBags = 20000
	p, w, thr, boxes, _ := microCorpus(nBags)
	stride := BoxStride * microBoxDims
	b.ResetTimer()
	for range b.N {
		for bg := range nBags {
			if BoxBoundExceeds(p, w, boxes[bg*stride:(bg+1)*stride], thr) {
				microSink++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nBags), "ns/bag")
}
