package bench

import (
	"embed"
	"encoding/json"
	"fmt"
)

// The goldens are pinned at the commit that added the benchmark:
// ebacheck's stdout per key, and the answer to every request a query
// workload can generate. `go test ./internal/bench -update` rewrites
// them; a test cross-checks the n=3 rows against the reference
// evaluator, so they do not come only from the evaluator under test.
//
//go:embed testdata
var testdata embed.FS

// Answer is the part of a query response the benchmark verifies.
type Answer struct {
	Key         string `json:"key"`
	Formula     string `json:"formula"`
	Valid       bool   `json:"valid"`
	TruePoints  int    `json:"true_points"`
	TotalPoints int    `json:"total_points"`
}

// answerKey indexes the answer table without formatting anything: the
// load generator looks an answer up for every response it verifies.
type answerKey struct {
	key     Key
	formula string
}

// Goldens is the loaded golden set.
type Goldens struct {
	verdicts map[string][]byte // key slug -> ebacheck stdout
	answers  map[answerKey]Answer
}

// LoadGoldens parses the embedded goldens.
func LoadGoldens() (*Goldens, error) {
	g := &Goldens{verdicts: make(map[string][]byte), answers: make(map[answerKey]Answer)}
	for _, k := range AllKeys {
		data, err := testdata.ReadFile("testdata/ebacheck/" + k.Slug() + ".golden")
		if err != nil {
			return nil, fmt.Errorf("bench: golden verdict: %w", err)
		}
		g.verdicts[k.Slug()] = data
	}
	data, err := testdata.ReadFile("testdata/queries.json")
	if err != nil {
		return nil, fmt.Errorf("bench: golden answers: %w", err)
	}
	var rows []Answer
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("bench: golden answers: %w", err)
	}
	bySlug := make(map[string]Answer, len(rows))
	for _, a := range rows {
		bySlug[a.Key+"\x00"+a.Formula] = a
	}
	for _, k := range AllKeys {
		for _, f := range Formulas {
			a, ok := bySlug[k.Slug()+"\x00"+f]
			if !ok {
				return nil, fmt.Errorf("bench: no golden answer for %q on %s", f, k.Slug())
			}
			g.answers[answerKey{k, f}] = a
		}
	}
	return g, nil
}

// Verdict is the golden ebacheck stdout for the key.
func (g *Goldens) Verdict(k Key) []byte { return g.verdicts[k.Slug()] }

// Answer is the golden answer to formula f over key k.
func (g *Goldens) Answer(k Key, f string) Answer { return g.answers[answerKey{k, f}] }

// wireAnswer is the minimal decoding of a daemon response: the verdict
// fields the goldens pin, plus the two origins the churn model checks.
type wireAnswer struct {
	Valid       bool `json:"valid"`
	TruePoints  int  `json:"true_points"`
	TotalPoints int  `json:"total_points"`
	System      struct {
		Origin string `json:"origin"`
	} `json:"system"`
	ResultOrigin string `json:"result_origin"`
}

// wireBatch is the minimal decoding of a batch response.
type wireBatch struct {
	Results []struct {
		Response *wireAnswer `json:"response"`
		Status   int         `json:"status"`
	} `json:"results"`
}

// matches reports whether the response carries the golden verdict.
func (a Answer) matches(w *wireAnswer) bool {
	return w != nil && w.Valid == a.Valid && w.TruePoints == a.TruePoints && w.TotalPoints == a.TotalPoints
}
