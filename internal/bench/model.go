package bench

// Origins is where the daemon says one answer came from: the system
// ("memory" or "disk") and the truth table ("memory", "disk" or
// "enumerated", the daemon's word for computed this request).
type Origins struct {
	System, Result string
}

// ChurnModel predicts, request by request, the origins a single-client
// daemon with a bounded memory layer reports: an LRU of maxMem systems
// whose truth-table memos die with their entry, over a disk layer that
// keeps every snapshot and every table ever computed. One client makes
// the daemon's cache state a function of the request sequence alone,
// so query-churn asserts every response against this.
type ChurnModel struct {
	maxMem int
	lru    []int                // resident keys, most recent first
	memo   map[int]map[int]bool // resident key -> formulas in its memo
	onDisk map[Request]bool     // truth tables written so far

	// Counts, in the vocabulary of store.Stats.
	Restores, Evictions, Computes, ResultDiskHits, ResultMemHits int
}

// NewChurnModel starts with nothing resident and no result files.
func NewChurnModel(maxMem int) *ChurnModel {
	return &ChurnModel{maxMem: maxMem, memo: make(map[int]map[int]bool), onDisk: make(map[Request]bool)}
}

// Serve advances the model by one request and returns the origins the
// daemon must report for it.
func (m *ChurnModel) Serve(r Request) Origins {
	o := Origins{System: "memory", Result: "memory"}
	at := -1
	for i, k := range m.lru {
		if k == r.Key {
			at = i
		}
	}
	if at >= 0 {
		m.lru = append(m.lru[:at], m.lru[at+1:]...)
	} else {
		o.System = "disk"
		m.Restores++
		m.memo[r.Key] = make(map[int]bool)
	}
	m.lru = append([]int{r.Key}, m.lru...)
	for len(m.lru) > m.maxMem {
		old := m.lru[len(m.lru)-1]
		m.lru = m.lru[:len(m.lru)-1]
		delete(m.memo, old)
		m.Evictions++
	}
	switch {
	case m.memo[r.Key][r.Formula]:
		m.ResultMemHits++
	case m.onDisk[r]:
		o.Result = "disk"
		m.ResultDiskHits++
	default:
		o.Result = "enumerated"
		m.Computes++
		m.onDisk[r] = true
	}
	m.memo[r.Key][r.Formula] = true
	return o
}
