package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/stats"
	"github.com/eventual-agreement/eba/internal/store"
)

// client is the benchmark's own minimal HTTP client: one connection,
// no retries, so a shed or an error is seen and counted rather than
// hidden the way service.Client would hide it.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

// post sends one request and reads the whole reply.
func (c *client) post(path string, body []byte) (status int, data []byte, err error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.http.CloseIdleConnections() }

// populateSnapshots writes every key's snapshot into dir through an
// in-process store, leaving no result files: query-churn's starting
// state.
func populateSnapshots(dir string, keys []Key) error {
	st, err := store.Open(dir, len(keys))
	if err != nil {
		return err
	}
	for _, k := range keys {
		sk, err := k.storeKey()
		if err != nil {
			return err
		}
		if _, _, err := st.System(sk); err != nil {
			return fmt.Errorf("bench: populate %s: %w", k.Slug(), err)
		}
	}
	return nil
}

// verify checks one decoded answer against the golden and, when want
// is non-nil, against the origins the workload's cache state implies.
func verify(g *Goldens, pop *Population, r Request, w *wireAnswer, want *Origins) error {
	k, f := pop.Keys[r.Key], Formulas[r.Formula]
	if golden := g.Answer(k, f); !golden.matches(w) {
		return fmt.Errorf("%q on %s: got %+v, golden %+v", f, k.Slug(), w, golden)
	}
	if want != nil && (w.System.Origin != want.System || w.ResultOrigin != want.Result) {
		return fmt.Errorf("%q on %s: origins system=%s result=%s, expected system=%s result=%s",
			f, k.Slug(), w.System.Origin, w.ResultOrigin, want.System, want.Result)
	}
	return nil
}

// queryOne posts a single query and verifies the reply.
func queryOne(c *client, g *Goldens, pop *Population, r Request, want *Origins) (*wireAnswer, error) {
	status, data, err := c.post("/v1/query", pop.Body(r))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var w wireAnswer
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	return &w, verify(g, pop, r, &w, want)
}

// resident is what every in-window answer of query-cached and
// query-batch must report: set-up left everything in memory.
var resident = Origins{System: "memory", Result: "memory"}

// querySetup prepares one daemon for a query workload: a fresh cache
// directory, snapshots pre-written for query-churn, the daemon
// started with the workload's flags, and — for the memory-resident
// workloads — every distinct request answered once.
func querySetup(bins *Binaries, g *Goldens, workload string, size Size, pop *Population, cacheDir string) (*daemon, error) {
	if err := os.RemoveAll(cacheDir); err != nil {
		return nil, err
	}
	maxMem := 0
	if workload == QueryChurn {
		maxMem = size.ChurnMaxMem
		if err := populateSnapshots(cacheDir, pop.Keys); err != nil {
			return nil, err
		}
	}
	d, err := bins.startDaemon(cacheDir, maxMem)
	if err != nil {
		return nil, err
	}
	if workload != QueryChurn {
		c := newClient(d.base)
		defer c.close()
		for _, r := range pop.All() {
			if _, err := queryOne(c, g, pop, r, nil); err != nil {
				d.stop()
				return nil, fmt.Errorf("bench: warm-up: %w", err)
			}
		}
	}
	return d, nil
}

// sample is one successful request: when it completed, counted from
// the start of its daemon's window, how long it took and how many
// queries it carried (the items of a batch).
type sample struct {
	end, lat time.Duration
	queries  int
}

// tally is one client's share of a measured window.
type tally struct {
	samples   []sample
	attempted int
	restore   time.Duration // summed latency of answers restored from disk
	failures  []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	if len(t.failures) < 4 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// ok records a request sent at sent and answered at done, in a window
// that began at begin, with its verified queries.
func (t *tally) ok(begin, sent, done time.Time, queries int) {
	t.attempted += queries
	t.samples = append(t.samples, sample{end: done.Sub(begin), lat: done.Sub(sent), queries: queries})
}

// mark is one reading of the daemon's CPU clock, at a time counted from
// the start of the window. Two consecutive marks bound a segment.
type mark struct {
	at, cpu time.Duration
}

// segment is the stretch of a window the closed-loop workloads compute
// each metric over; the run reports the median segment. A neighbour on
// the shared host slows the machine for seconds at a time: pooled over
// the window that drags a mean (qps, CPU per query) and owns the tail
// (p99), while the median of many short stretches does not move until
// half of them are hit.
const segment = time.Second

// tailSamples is how many requests a p99 is taken over at least, so
// that ten lie beyond it.
const tailSamples = 1000

// segmentMetrics appends, for every segment the marks bound, the
// segment's qps, median latency and daemon CPU per query to per, and a
// p99 for every run of consecutive segments that holds tailSamples
// requests (one second of single queries, a whole window of batches).
func segmentMetrics(marks []mark, samples []sample, per map[string][]float64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	var pool []time.Duration
	tail := func() {
		per["latency_p99_ms"] = append(per["latency_p99_ms"], stats.PercentileMS(pool, 0.99))
		pool = nil
	}
	tails, next := len(per["latency_p99_ms"]), 0
	for k := 0; k+1 < len(marks); k++ {
		from, to := marks[k], marks[k+1]
		var lat []time.Duration
		queries := 0
		for ; next < len(samples) && samples[next].end < to.at; next++ {
			if samples[next].end >= from.at {
				lat = append(lat, samples[next].lat)
				queries += samples[next].queries
			}
		}
		if queries == 0 {
			continue
		}
		per["qps"] = append(per["qps"], float64(queries)/(to.at-from.at).Seconds())
		per["latency_p50_ms"] = append(per["latency_p50_ms"], millis(medianDuration(lat)))
		per["server_cpu_us_per_query"] = append(per["server_cpu_us_per_query"], micros(to.cpu-from.cpu)/float64(queries))
		if pool = append(pool, lat...); len(pool) >= tailSamples {
			tail()
		}
	}
	// A window too short for one full pool (a quick run) still gets its
	// p99; a remainder after full pools is dropped.
	if len(pool) > 0 && len(per["latency_p99_ms"]) == tails {
		tail()
	}
}

// RunQuery is one of the three daemon workloads with tracing off. The
// daemon is a child process; load comes from closed-loop clients (each
// waits for its reply, as ebad's callers do), one connection each. An
// operation is one query (one batch item).
//
// Set-up — golden load, fresh cache directory, snapshot pre-population
// for query-churn, daemon start, warm-up — is performed SetupRepeats
// times and setup_s is the median. The closed-loop workloads measure
// an equal share of the window on every one of those daemons, cut every
// share into one-second segments and report the median segment of all
// of them: throughput of a loopback ping-pong settles at a level per
// daemon and connection (scheduler and socket placement) that differs
// by 10% between otherwise identical starts, and moves by as much from
// one second to the next. query-churn's sequence is one piece, so it is
// one segment on the last daemon alone.
func RunQuery(bins *Binaries, workload string, size Size, seed int64, workDir string) (*Result, error) {
	res := newResult(workload, false, seed)
	total := time.Now()
	pop, err := NewPopulation(workload, size)
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(workDir, "cache-"+workload)
	defer os.RemoveAll(cacheDir)
	clients := size.Clients
	if workload == QueryChurn {
		clients = 1
	}
	streams := make([]*Stream, clients)
	for c := range streams {
		streams[c] = pop.NewStream(workload, seed, c)
	}
	share := time.Duration(size.WindowSeconds) * time.Second / time.Duration(size.SetupRepeats)
	// Quick runs and query-churn are bounded in requests, not in time:
	// the whole of it is one segment.
	timed := workload != QueryChurn && size.LoopRequests == 0

	var (
		setups []float64
		// per holds, per metric, one value per measured segment (peak RSS:
		// per measured daemon).
		per     = map[string][]float64{}
		lat     []time.Duration
		window  time.Duration
		restore time.Duration
		queries int
	)
	for i := 0; i < size.SetupRepeats; i++ {
		start := time.Now()
		g, err := LoadGoldens()
		if err != nil {
			return nil, err
		}
		d, err := querySetup(bins, g, workload, size, pop, cacheDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if workload == QueryChurn && i < size.SetupRepeats-1 {
			d.stop()
			continue
		}

		cpu0, err := d.cpu()
		if err != nil {
			d.stop()
			return nil, err
		}
		tallies := make([]*tally, clients)
		begin := time.Now()
		deadline := begin.Add(share)
		marks := []mark{{0, cpu0}}
		var wg sync.WaitGroup
		for c := range tallies {
			t, stream := &tally{}, streams[c]
			tallies[c] = t
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := newClient(d.base)
				defer cl.close()
				switch workload {
				case QueryCached:
					for i := 0; (timed || i < size.LoopRequests) && time.Now().Before(deadline); i++ {
						single(cl, g, pop, stream.Next(), &resident, begin, t)
					}
				case QueryBatch:
					for i := 0; (timed || i*size.BatchItems < size.LoopRequests) && time.Now().Before(deadline); i++ {
						batch(cl, g, pop, stream.Take(size.BatchItems), begin, t)
					}
				case QueryChurn:
					model := NewChurnModel(size.ChurnMaxMem)
					for i, r := range pop.Sequence(workload, seed, size.ChurnRequests) {
						want := model.Serve(r)
						single(cl, g, pop, r, &want, begin, t)
						if i+1 == size.ReplayRequests {
							// What the traced pass replays in process.
							res.Durations["replay_head"] = time.Since(begin).Seconds()
						}
					}
					res.Counts["restores"] = model.Restores
					res.Counts["evictions"] = model.Evictions
					res.Counts["result_computes"] = model.Computes
					res.Counts["result_disk_hits"] = model.ResultDiskHits
					res.Counts["result_mem_hits"] = model.ResultMemHits
				}
			}()
		}
		// This goroutine reads the daemon's CPU clock at every segment
		// boundary while the clients run; the time it actually woke at is
		// the boundary, so requests and CPU are cut at the same instant.
		var markErr error
		for k := 1; timed && markErr == nil && time.Duration(k)*segment <= share; k++ {
			time.Sleep(time.Until(begin.Add(time.Duration(k) * segment)))
			var cpu time.Duration
			cpu, markErr = d.cpu()
			marks = append(marks, mark{time.Since(begin), cpu})
		}
		wg.Wait()
		elapsed := time.Since(begin)
		cpu1, err := d.cpu()
		var rssKB int64
		if err == nil {
			rssKB, err = d.peakRSSKB()
		}
		d.stop()
		if err == nil {
			err = markErr
		}
		if err != nil {
			return nil, err
		}
		if !timed {
			marks = append(marks, mark{elapsed, cpu1})
		}

		var samples []sample
		for _, t := range tallies {
			samples = append(samples, t.samples...)
			restore += t.restore
			res.Attempted += t.attempted
			res.Failures = append(res.Failures, t.failures...)
		}
		for _, sm := range samples {
			lat = append(lat, sm.lat)
			queries += sm.queries
		}
		segmentMetrics(marks, samples, per)
		if len(samples) > 0 {
			per["peak_rss_mb"] = append(per["peak_rss_mb"], float64(rssKB)/1024)
		}
		window += elapsed
	}
	res.Failed = res.Attempted - queries

	res.set("setup_s", median(setups))
	for name, v := range per {
		res.set(name, median(v))
	}
	if workload == QueryChurn {
		res.set("restore_s", restore.Seconds())
	}
	res.Extra["build_s"] = Value{bins.BuildSeconds, "s"}
	res.Timings["request"] = Summarize(lat)
	res.Counts["clients"] = clients
	res.Counts["requests"] = len(lat)
	res.Counts["queries"] = queries
	res.Counts["setup_repeats"] = size.SetupRepeats
	res.Counts["measured_daemons"] = len(per["peak_rss_mb"])
	res.Counts["segments"] = len(per["qps"])
	res.Counts["p99_pools"] = len(per["latency_p99_ms"])
	res.Durations["window"] = window.Seconds()
	res.Durations["total"] = time.Since(total).Seconds()
	res.finish()
	return res, nil
}

// single issues one POST /v1/query and tallies it.
func single(cl *client, g *Goldens, pop *Population, r Request, want *Origins, begin time.Time, t *tally) {
	sent := time.Now()
	w, err := queryOne(cl, g, pop, r, want)
	if err != nil {
		t.fail(1, "%v", err)
		return
	}
	done := time.Now()
	t.ok(begin, sent, done, 1)
	if w.System.Origin == "disk" {
		t.restore += done.Sub(sent)
	}
}

// batch issues one POST /v1/query/batch and tallies every item.
func batch(cl *client, g *Goldens, pop *Population, rs []Request, begin time.Time, t *tally) {
	sent := time.Now()
	status, data, err := cl.post("/v1/query/batch", pop.BatchBody(rs))
	done := time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var wb wireBatch
	if err == nil {
		err = json.Unmarshal(data, &wb)
	}
	if err == nil && len(wb.Results) != len(rs) {
		err = fmt.Errorf("%d results for %d queries", len(wb.Results), len(rs))
	}
	if err != nil {
		t.fail(len(rs), "batch: %v", err)
		return
	}
	good := 0
	for i, it := range wb.Results {
		if it.Response == nil {
			t.fail(1, "batch item: status %d", it.Status)
			continue
		}
		if err := verify(g, pop, rs[i], it.Response, &resident); err != nil {
			t.fail(1, "batch item: %v", err)
			continue
		}
		good++
	}
	// The batch's latency ends when its reply has been read, not when
	// the generator has verified 512 answers.
	t.ok(begin, sent, done, good)
}
