package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
)

// Request is one generated query: indices into a Population's keys
// and into Formulas.
type Request struct {
	Key, Formula int
}

// Population is the set of distinct requests a query workload draws
// from, with each one's wire body marshalled once. The program under
// test only ever sees these bodies.
type Population struct {
	Keys     []Key
	NFormula int
	// weights[i] is key i's share of query-churn's sequence in percent.
	weights []int
	bodies  [][]byte // [key*NFormula + formula]
}

// queryBody is the POST /v1/query request body.
type queryBody struct {
	Formula string `json:"formula"`
	N       int    `json:"n"`
	T       int    `json:"t"`
	Mode    string `json:"mode"`
	Horizon int    `json:"horizon"`
}

// NewPopulation builds the request population of a query workload (or,
// for the cold workload's traced pass, of its keys).
func NewPopulation(workload string, size Size) (*Population, error) {
	p := &Population{Keys: size.QueryKeys, NFormula: 4}
	switch workload {
	case ColdVerdict:
		p.Keys = size.ColdKeys
	case QueryCached, QueryBatch:
	case QueryChurn:
		p.NFormula = len(Formulas)
		p.weights = size.ChurnWeights
		sum := 0
		for _, w := range p.weights {
			sum += w
		}
		if len(p.weights) != len(p.Keys) || sum != 100 {
			return nil, fmt.Errorf("bench: churn weights %v do not give %d keys percentages summing to 100", p.weights, len(p.Keys))
		}
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", workload)
	}
	for _, k := range p.Keys {
		for _, f := range Formulas[:p.NFormula] {
			b, err := json.Marshal(queryBody{Formula: f, N: k.N, T: k.T, Mode: k.Mode, Horizon: k.H})
			if err != nil {
				return nil, err
			}
			p.bodies = append(p.bodies, b)
		}
	}
	return p, nil
}

// Body is the request's POST /v1/query body.
func (p *Population) Body(r Request) []byte { return p.bodies[r.Key*p.NFormula+r.Formula] }

// BatchBody is the POST /v1/query/batch body for the requests.
func (p *Population) BatchBody(rs []Request) []byte {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(p.Body(r))
	}
	b.WriteString("]}")
	return b.Bytes()
}

// All lists every distinct request once, key-major — the order set-up
// warms them in.
func (p *Population) All() []Request {
	var rs []Request
	for k := range p.Keys {
		for f := 0; f < p.NFormula; f++ {
			rs = append(rs, Request{k, f})
		}
	}
	return rs
}

// Stream is one client's endless seeded request sequence, uniform
// over the population (query-cached and query-batch).
type Stream struct {
	pop *Population
	rng *rand.Rand
}

// workloadSalt keeps two workloads at one seed on different sequences.
var workloadSalt = map[string]int64{ColdVerdict: 1, QueryCached: 2, QueryBatch: 3, QueryChurn: 4}

// NewStream seeds client c's sequence for the workload: the same
// (workload, seed, client) always yields the same requests.
func (p *Population) NewStream(workload string, seed int64, c int) *Stream {
	src := seed*1_000_003 + int64(c)*7919 + workloadSalt[workload]
	return &Stream{pop: p, rng: rand.New(rand.NewSource(src))}
}

// Next draws the next request.
func (s *Stream) Next() Request {
	return Request{Key: s.rng.Intn(len(s.pop.Keys)), Formula: s.rng.Intn(s.pop.NFormula)}
}

// Take draws the next n requests.
func (s *Stream) Take(n int) []Request {
	rs := make([]Request, n)
	for i := range rs {
		rs[i] = s.Next()
	}
	return rs
}

// Sequence is query-churn's fixed-length request sequence. Its
// composition does not depend on the seed — each key gets exactly its
// percentage of the n requests, its formulas in rotation — only its
// order does (a seeded shuffle). A seed that happened to draw a third
// more requests for the largest snapshot would otherwise move qps by
// more than any code change.
func (p *Population) Sequence(workload string, seed int64, n int) []Request {
	rs := make([]Request, 0, n)
	for k := range p.Keys {
		for i := 0; i < n*p.weights[k]/100; i++ {
			rs = append(rs, Request{Key: k, Formula: i % p.NFormula})
		}
	}
	// Rounding leaves a few slots; they go to the last (smallest) key.
	for i := 0; len(rs) < n; i++ {
		rs = append(rs, Request{Key: len(p.Keys) - 1, Formula: i % p.NFormula})
	}
	rng := p.NewStream(workload, seed, 0).rng
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}
