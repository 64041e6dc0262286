package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// input is one generated query document. Body is the document's JSON
// encoding (what ParseQuery reads); Request is the POST /plan body that
// carries it.
type input struct {
	Family  string
	N       int
	Doc     *repro.QueryJSON
	Body    []byte
	Request []byte
}

// inputSet is everything a workload sends, generated from the seed
// before any timing starts. Library workloads cycle through Inputs in
// order, timed in segments of Segment inputs (one block of the mix, so
// that every segment holds the same shapes and sizes); serve
// workloads request the documents Keys names, in order.
type inputSet struct {
	Inputs  []input
	Keys    []int32
	Segment int
}

// family draws one graph with n relations, n one of min, min+step, …,
// up to max.
type family struct {
	name           string
	min, max, step int
	gen            func(rng *rand.Rand, n int) *hypergraph.Graph
}

// defaultCfg returns the §4 workload generator's cardinality and
// selectivity ranges with a seed taken from rng, so every document gets
// its own statistics even when two documents share a shape and size.
func defaultCfg(rng *rand.Rand) workload.Config {
	c := workload.DefaultConfig()
	c.Seed = rng.Int63()
	return c
}

// largeCfg is defaultCfg for the 65–98-relation tier, whose default
// statistics would overflow float64 cardinalities.
func largeCfg(rng *rand.Rand) workload.Config {
	c := workload.LargeConfig()
	c.Seed = rng.Int63()
	return c
}

var (
	chainF = family{name: "chain", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.Chain(n, defaultCfg(rng))
	}}
	cycleF = family{name: "cycle", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.Cycle(n, defaultCfg(rng))
	}}
	starF = family{name: "star", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.Star(n, defaultCfg(rng))
	}}
	cliqueF = family{name: "clique", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.Clique(n, defaultCfg(rng))
	}}
	randomF = family{name: "random", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.RandomSimple(rng, n, n/3, defaultCfg(rng))
	}}
	hyperF = family{name: "hyper", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.RandomHyper(rng, n, 3, defaultCfg(rng))
	}}
	largeChainF = family{name: "large-chain", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.Chain(n, largeCfg(rng))
	}}
	largeStarF = family{name: "large-star", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.Star(n, largeCfg(rng))
	}}
	largeRandomF = family{name: "large-random", gen: func(rng *rand.Rand, n int) *hypergraph.Graph {
		return workload.RandomSimple(rng, n, n/8, largeCfg(rng))
	}}
)

// sized returns f restricted to sizes min..max.
func sized(f family, min, max int) family {
	return stepped(f, min, max, 1)
}

// stepped returns f restricted to the sizes min..max in steps of step.
func stepped(f family, min, max, step int) family {
	f.min, f.max, f.step = min, max, step
	return f
}

// stratum is one share of a block: count documents per block, the k-th
// of them drawn from fams[k%len(fams)]. All of a stratum's families
// share the sizes of fams[0].
type stratum struct {
	fams  []family
	count int
}

// mix is a stratified input mix: every block holds exactly count
// documents of each stratum in a seeded order, and each family draws
// its sizes from a shuffled deck of its sizes, so every size appears
// equally often. Where a stratum's count is a multiple of its deck,
// every block holds exactly the same sizes. Two seeds therefore give
// the same mix of shapes and sizes and differ only in statistics, graph
// wiring and order, which keeps run-to-run spread down to what the
// program does.
type mix []stratum

func (m mix) blockLen() int {
	n := 0
	for _, s := range m {
		n += s.count
	}
	return n
}

// deck deals sizes min..max (in steps of step) in shuffled rounds.
type deck struct {
	rng            *rand.Rand
	min, max, step int
	cards          []int
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		for n := d.min; n <= d.max; n += d.step {
			d.cards = append(d.cards, n)
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	n := d.cards[0]
	d.cards = d.cards[1:]
	return n
}

// generate draws blocks×blockLen documents from the mix.
func (m mix) generate(rng *rand.Rand, blocks int) ([]input, error) {
	decks := make([]*deck, len(m))
	drawn := make([]int, len(m))
	for i, s := range m {
		f := s.fams[0]
		decks[i] = &deck{rng: rng, min: f.min, max: f.max, step: f.step}
	}
	var out []input
	order := make([]int, 0, m.blockLen())
	for b := 0; b < blocks; b++ {
		order = order[:0]
		for i, s := range m {
			for k := 0; k < s.count; k++ {
				order = append(order, i)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			f := m[i].fams[drawn[i]%len(m[i].fams)]
			drawn[i]++
			in, err := newInput(f.name, f.gen(rng, decks[i].next()))
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// newInput encodes g the way cmd/querygen does.
func newInput(fam string, g *hypergraph.Graph) (input, error) {
	doc := &repro.QueryJSON{}
	for i := 0; i < g.NumRels(); i++ {
		r := g.Relation(i)
		doc.Relations = append(doc.Relations, repro.RelationJSON{Name: r.Name, Card: r.Card, Free: r.Free.Elems()})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		doc.Edges = append(doc.Edges, repro.EdgeJSON{
			Left: e.U.Elems(), Right: e.V.Elems(), Free: e.W.Elems(),
			Sel: e.Sel, Op: e.Op.String(), Label: e.Label,
		})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return input{}, fmt.Errorf("encoding %s document: %w", fam, err)
	}
	req := append(append([]byte(`{"query":`), body...), '}')
	return input{Family: fam, N: g.NumRels(), Doc: doc, Body: body, Request: req}, nil
}

// The input mixes of the four workloads (see README.md for why each
// was chosen).
var (
	// sparseMix: one block is 253 documents: every size of every small
	// family three to eight times, one 10-relation clique (so that
	// DPsub is measured), and one 65–98-relation chain, star and random
	// graph (1.2%, the iterdp tier). The large sizes step by 3, so the
	// twelve blocks of a list hold each of them once per shape, whatever
	// the seed.
	sparseMix = mix{
		{[]family{sized(chainF, 8, 24)}, 51},
		{[]family{sized(cycleF, 8, 24)}, 51},
		{[]family{sized(starF, 6, 11)}, 48},
		{[]family{sized(randomF, 8, 14)}, 49},
		{[]family{sized(hyperF, 8, 14)}, 49},
		{[]family{sized(cliqueF, 10, 10)}, 1},
		{[]family{stepped(largeChainF, 65, 98, 3)}, 1},
		{[]family{stepped(largeStarF, 65, 98, 3)}, 1},
		{[]family{stepped(largeRandomF, 65, 98, 3)}, 1},
	}

	denseMix = mix{
		{[]family{sized(cliqueF, 8, 8)}, 1},
		{[]family{sized(cliqueF, 9, 9)}, 1},
		{[]family{sized(cliqueF, 10, 10)}, 1},
		{[]family{sized(cliqueF, 11, 11)}, 1},
		{[]family{sized(starF, 12, 12)}, 1},
		{[]family{sized(starF, 13, 13)}, 1},
		{[]family{sized(starF, 14, 14)}, 1},
	}

	hotMix = mix{
		{[]family{sized(chainF, 6, 10)}, 1},
		{[]family{sized(cycleF, 6, 10)}, 1},
		{[]family{sized(starF, 6, 10)}, 1},
		{[]family{sized(randomF, 6, 10)}, 1},
		{[]family{sized(hyperF, 6, 10)}, 1},
	}

	churnMix = mix{
		{[]family{sized(chainF, 7, 10)}, 1},
		{[]family{sized(cycleF, 7, 10)}, 1},
		{[]family{sized(starF, 7, 10)}, 1},
		{[]family{sized(randomF, 7, 10)}, 1},
		{[]family{sized(hyperF, 7, 10)}, 1},
	}
)

const (
	sparseBlocks = 12  // 3036 documents
	denseBlocks  = 48  // 336 documents
	hotDocs      = 256 // the hot set: exactly the default plan-cache capacity
	churnDocs    = 4096
	serveKeys    = 1 << 18 // request sequence length; runs wrap around it
	churnZipfS   = 1.15
)

// generateInputs builds the named workload's input set from seed.
func generateInputs(name string, seed int64) (*inputSet, error) {
	rng := rand.New(rand.NewSource(seed))
	set := &inputSet{}
	var err error
	switch name {
	case "plan-sparse":
		set.Inputs, err = sparseMix.generate(rng, sparseBlocks)
		set.Segment = sparseMix.blockLen()
	case "plan-dense":
		set.Inputs, err = denseMix.generate(rng, denseBlocks)
		set.Segment = denseMix.blockLen()
	case "serve-hot":
		set.Inputs, err = hotMix.generate(rng, hotDocs/hotMix.blockLen()+1)
		set.Inputs = set.Inputs[:hotDocs]
		// Rounds of seeded permutations: every document is requested
		// equally often, and two requests in flight together are for
		// different documents, so nothing coalesces.
		set.Keys = make([]int32, 0, serveKeys)
		for len(set.Keys) < serveKeys {
			for _, d := range rng.Perm(hotDocs) {
				set.Keys = append(set.Keys, int32(d))
			}
		}
	case "serve-churn":
		set.Inputs, err = churnMix.generate(rng, churnDocs/churnMix.blockLen()+1)
		set.Inputs = set.Inputs[:churnDocs]
		// Popularity ranks map to documents through a seeded
		// permutation, so the popular documents are a random mix of
		// families and sizes.
		perm := rng.Perm(churnDocs)
		z := rand.NewZipf(rng, churnZipfS, 1, churnDocs-1)
		set.Keys = make([]int32, serveKeys)
		for i := range set.Keys {
			set.Keys[i] = int32(perm[z.Uint64()])
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	return set, nil
}
