package streamsetcover_test

import (
	"fmt"
	"math"

	ssc "repro"
)

// The basic workflow: generate an instance, stream it, cover it.
func ExampleIterSetCover() {
	in, _, opt, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 800, K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	repo := ssc.NewRepository(in)
	res, err := ssc.IterSetCover(repo, ssc.Options{Delta: 0.5, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid cover:", in.IsCover(res.Cover))
	fmt.Println("passes within 2/delta:", res.Passes <= 4)
	fmt.Println("cover within 10x of opt:", len(res.Cover) <= 10*opt)
	// Output:
	// valid cover: true
	// passes within 2/delta: true
	// cover within 10x of opt: true
}

// The ε-partial variant covers at least a (1-ε) fraction with fewer sets.
func ExampleIterSetCover_partial() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 800, K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	full, _ := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 1})
	part, _ := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 1, PartialEps: 0.1})
	fmt.Println("partial satisfies 90% goal:", in.IsPartialCover(part.Cover, 0.1))
	fmt.Println("partial no larger than full:", len(part.Cover) <= len(full.Cover))
	// Output:
	// partial satisfies 90% goal: true
	// partial no larger than full: true
}

// One-pass baselines trade approximation for passes.
func ExampleEmekRosen() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 400, M: 800, K: 8, Seed: 2})
	if err != nil {
		panic(err)
	}
	st, err := ssc.EmekRosen(ssc.NewRepository(in), ssc.EngineOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("passes:", st.Passes)
	fmt.Println("valid:", in.IsCover(st.Cover))
	// Output:
	// passes: 1
	// valid: true
}

// The geometric algorithm covers points with streamed shapes in Õ(n) space.
func ExampleAlgGeomSC() {
	gi, _, err := ssc.PlantedDisks(200, 800, 4, 3)
	if err != nil {
		panic(err)
	}
	repo := ssc.NewShapeRepo(gi)
	repo.Precompute()
	res, err := ssc.AlgGeomSC(repo, ssc.GeomOptions{Delta: 0.25, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("valid cover:", gi.IsCover(res.Cover))
	fmt.Println("constant passes:", res.Passes <= 13)
	// Output:
	// valid cover: true
	// constant passes: true
}

// Instances round-trip through the text format.
func ExampleWriteInstance() {
	in := &ssc.Instance{N: 3, Sets: []ssc.Set{{Elems: []ssc.Elem{0, 1}}, {Elems: []ssc.Elem{2}}}}
	in.Normalize()
	var s stringsBuilder
	if err := ssc.WriteInstance(&s, in); err != nil {
		panic(err)
	}
	fmt.Print(s.String())
	// Output:
	// setcover 3 2
	// 0 0 1
	// 1 2
}

// stringsBuilder is a minimal io.Writer to keep the example self-contained.
type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *stringsBuilder) String() string              { return string(s.b) }

// Theorem 2.8's pass/space trade-off on one instance: smaller δ buys less
// memory (Õ(m·n^δ)) with more passes (2/δ), and every cover stays valid.
func ExampleIterSetCover_tradeoff() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 2048, M: 4096, K: 16, Seed: 5})
	if err != nil {
		panic(err)
	}
	prevSpace := int64(math.MaxInt64)
	for _, delta := range []float64{1, 0.5, 1.0 / 3.0, 0.25} {
		res, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: delta, Seed: 5})
		if err != nil {
			panic(err)
		}
		budget := int(math.Round(2 / delta))
		fmt.Printf("delta=%.2f: passes<=%d %v, space shrinks %v, valid %v\n", delta, budget,
			res.Passes <= budget, res.SpaceWords < prevSpace, in.IsCover(res.Cover))
		prevSpace = res.SpaceWords
	}
	// Output:
	// delta=1.00: passes<=2 true, space shrinks true, valid true
	// delta=0.50: passes<=4 true, space shrinks true, valid true
	// delta=0.33: passes<=6 true, space shrinks true, valid true
	// delta=0.25: passes<=8 true, space shrinks true, valid true
}

// The web-host workload from the paper's introduction: pick the fewest
// mirror hosts whose inventories cover a URL corpus, scanning a catalog too
// large to hold. iterSetCover reads it 2/δ times; one-pass greedy and
// Emek–Rosén read it once.
func ExampleIterSetCover_webhost() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 2500, M: 4000, K: 20, Seed: 7})
	if err != nil {
		panic(err)
	}
	iter, err := ssc.IterSetCover(ssc.NewRepository(in), ssc.Options{Delta: 0.5, Seed: 7})
	if err != nil {
		panic(err)
	}
	greedy, err := ssc.OnePassGreedy(ssc.NewRepository(in), ssc.EngineOptions{})
	if err != nil {
		panic(err)
	}
	er, err := ssc.EmekRosen(ssc.NewRepository(in), ssc.EngineOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("iterSetCover: passes<=4", iter.Passes <= 4, "valid", in.IsCover(iter.Cover))
	fmt.Println("greedy:       passes", greedy.Passes, "valid", in.IsCover(greedy.Cover))
	fmt.Println("Emek-Rosén:   passes", er.Passes, "valid", in.IsCover(er.Cover))
	// Output:
	// iterSetCover: passes<=4 true valid true
	// greedy:       passes 1 valid true
	// Emek-Rosén:   passes 1 valid true
}

// The blog-watch scenario of [SG09]: subscribe to the fewest feeds covering
// every topic. Chakrabarti–Wirth spends exactly its pass budget p, and each
// extra pass over the feed catalog buys a list no longer than before.
func ExampleChakrabartiWirth() {
	in, _, _, err := ssc.Planted(ssc.PlantedConfig{N: 1500, M: 3000, K: 15, Seed: 11})
	if err != nil {
		panic(err)
	}
	prev, err := ssc.EmekRosen(ssc.NewRepository(in), ssc.EngineOptions{})
	if err != nil {
		panic(err)
	}
	for _, p := range []int{2, 4} {
		st, err := ssc.ChakrabartiWirth(ssc.NewRepository(in), p, ssc.EngineOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("p=%d: passes %d, no longer than with fewer passes %v, valid %v\n",
			p, st.Passes, len(st.Cover) <= len(prev.Cover), in.IsCover(st.Cover))
		prev = st
	}
	// Output:
	// p=2: passes 2, no longer than with fewer passes true, valid true
	// p=4: passes 4, no longer than with fewer passes true, valid true
}
