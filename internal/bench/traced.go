package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// Grouping spans. A workload's "pipeline" is the in-process stand-in
// for what its end-to-end run does (the ebacheck replica for
// cold-verdict, the request replay for the query workloads);
// everything else the traced pass measures hangs under "lab".
const (
	spanPipeline = "pipeline"
	spanLab      = "lab"
)

// One formula per operator family, for the fill measurements.
var fillFamilies = []struct{ metric, formula string }{
	{"knowledge.fill_k_ms", "K0 E0"},
	{"knowledge.fill_e_ms", "E E0"},
	{"knowledge.fill_c_ms", "C E0"},
	{"knowledge.fill_cbox_ms", "Cbox E0"},
	{"knowledge.fill_cdia_ms", "Cdia E0"},
}

// RunTraced is the per-layer pass for one workload: in process, with a
// span around each call the benchmark makes into a layer. Every
// workload measures every layer — over its own keys, its own request
// population and a store sized like its daemon's — so a layer metric
// means the same thing everywhere and only the inputs differ. The
// recorder is returned for the caller to write out.
func RunTraced(workload string, size Size, seed int64, workDir string) (*Result, *Recorder, error) {
	res := newResult(workload, true, seed)
	total := time.Now()
	pop, err := NewPopulation(workload, size)
	if err != nil {
		return nil, nil, err
	}
	g, err := LoadGoldens()
	if err != nil {
		return nil, nil, err
	}
	labDir := filepath.Join(workDir, "traced-"+workload)
	if err := os.RemoveAll(labDir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(labDir)

	rec := NewRecorder(workload)
	root := rec.Start(0, "workload")
	t := &tracedPass{res: res, rec: rec, root: root, g: g, pop: pop, size: size, seed: seed, dir: labDir}
	for _, m := range PerLayer {
		res.set(m.Name, 0)
	}
	if err := t.keys(); err != nil {
		return nil, nil, err
	}
	if err := t.serviceLab(); err != nil {
		return nil, nil, err
	}
	if err := t.replay(); err != nil {
		return nil, nil, err
	}
	rec.End(root)

	spans := rec.Spans()
	cov := Coverage(spans, spanPipeline)
	res.Ratios["trace.coverage"] = cov
	res.set("trace.coverage", cov.Value)
	over := NewRatio(t.tracedWall.Seconds(), t.untracedWall.Seconds(), t.overheadBase)
	res.Ratios["trace.overhead"] = over
	res.set("trace.overhead", over.Value)
	res.Counts["spans"] = len(spans)
	res.Durations["total"] = time.Since(total).Seconds()
	res.finish()
	return res, rec, nil
}

// tracedPass carries one traced pass's state between its stages.
type tracedPass struct {
	res  *Result
	rec  *Recorder
	root int
	g    *Goldens
	pop  *Population
	size Size
	seed int64
	dir  string

	// The overhead measurement: the workload's pipeline (or, for
	// cold-verdict, its small keys) run once without and once with the
	// recorder.
	tracedWall, untracedWall time.Duration
	overheadBase             string
}

// ms adds a duration to a millisecond metric.
func (t *tracedPass) ms(name string, d time.Duration) { t.res.add(name, millis(d)) }

// smallReps sizes the per-key microsecond loops (parse, scan, memo
// hit), which run once per key or formula rather than once per pass.
func (t *tracedPass) smallReps() int { return max(t.size.LabReps/10, 10) }

// scanSink receives the scans' results so the compiler keeps them.
var scanSink bool

// keys runs, for every key of the workload, the ebacheck replica and
// then the layer measurements ebacheck does not make on its own path.
func (t *tracedPass) keys() error {
	cold := t.res.Workload == ColdVerdict
	keys := t.size.QueryKeys
	if cold {
		keys = t.size.ColdKeys
		t.overheadBase = "traced / untraced wall of the in-process ebacheck replica on the n=3 keys, s"
	}
	for _, f := range Formulas {
		// Parsing is key-independent: median over the population.
		var each []time.Duration
		for i := 0; i < t.smallReps(); i++ {
			start := time.Now()
			if _, err := knowledge.Parse(f); err != nil {
				return err
			}
			each = append(each, time.Since(start))
		}
		t.res.add("knowledge.parse_us", micros(medianDuration(each))/float64(len(Formulas)))
	}
	for _, k := range keys {
		group := spanLab
		if cold {
			group = spanPipeline
			if k.small() {
				// The untraced reference comes first so the traced run
				// does not get the colder caches.
				start := time.Now()
				if _, err := replicaCheck(nil, 0, k); err != nil {
					return err
				}
				t.untracedWall += time.Since(start)
			}
		}
		parent := t.rec.Start(t.root, group)
		rep, err := replicaCheck(t.rec, parent, k)
		wall := t.rec.End(parent)
		if err != nil {
			return err
		}
		if cold && k.small() {
			t.tracedWall += wall
		}
		t.res.Attempted++
		if !bytes.Equal(rep.stdout, t.g.Verdict(k)) {
			t.res.fail("in-process ebacheck replica on %s differs from golden", k.Slug())
		}
		if err := t.keyLab(k, rep); err != nil {
			return fmt.Errorf("bench: %s: %w", k.Slug(), err)
		}
	}
	spans := t.rec.Spans()
	for span, metric := range map[string]string{
		"failures.enum":   "failures.enum_ms",
		"system.build":    "system.build_ms",
		"protocols.pairs": "protocols.pairs_ms",
		"core.twostep":    "core.twostep_ms",
		"core.optimal":    "core.optimal_ms",
		"core.check":      "core.check_ms",
		"core.dominance":  "core.dominance_ms",
	} {
		t.res.set(metric, millis(sumNamed(spans, span)))
	}
	build, intern := t.res.Metrics["system.build_ms"].Value, t.res.Metrics["views.intern_ms"].Value
	t.res.set("system.index_ms", build-intern)
	rvb := NewRatio(t.res.Metrics["store.restore_ms"].Value, build,
		"store.restore_ms / system.build_ms, both summed over the workload's keys, ms")
	t.res.Ratios["store.restore_vs_build"] = rvb
	t.res.set("store.restore_vs_build", rvb.Value)
	return nil
}

// keyLab measures, on one key's freshly built system, the layers'
// public entry points that the replica does not isolate.
func (t *tracedPass) keyLab(k Key, rep *replica) error {
	res, rec := t.res, t.rec
	lab := rec.Start(t.root, spanLab)
	defer rec.End(lab)
	sys := rep.sys
	params := types.Params{N: k.N, T: k.T}
	res.add("failures.patterns", float64(len(rep.pats)))
	res.add("system.runs", float64(sys.NumRuns()))
	res.add("system.points", float64(sys.NumPoints()))
	res.add("system.alloc_mb", float64(rep.allocBytes)/1e6)
	res.add("system.allocs", float64(rep.allocs))

	in := views.NewInterner(k.N)
	t.ms("views.intern_ms", rec.Do(lab, "views.intern", func(int) {
		for _, pat := range rep.pats {
			for mask := uint64(0); mask < 1<<uint(k.N); mask++ {
				views.BuildRun(in, types.ConfigFromBits(k.N, mask), pat)
			}
		}
	}))
	res.add("views.nodes", float64(in.Size()))

	var err error
	t.ms("system.build_par_ms", rec.Do(lab, "system.build_par", func(int) {
		_, err = system.FromPatternsParallel(params, sys.Mode, k.H, rep.pats, 0)
	}))
	if err != nil {
		return err
	}

	// Truth-table fills: a fresh sequential evaluator per operator
	// family, then a second formula on a hot evaluator, then the
	// heaviest family again at default parallelism.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hot *knowledge.Evaluator
	var table *knowledge.Bits
	for _, fam := range fillFamilies {
		f, err := knowledge.Parse(fam.formula)
		if err != nil {
			return err
		}
		ev := knowledge.NewEvaluator(sys)
		ev.SetParallelism(1)
		t.ms(fam.metric, rec.Do(lab, "knowledge.fill", func(int) { table = ev.Eval(f) }))
		switch fam.formula {
		case "Cbox E0":
			hot = ev
		case "Cdia E0":
			res.add("knowledge.cdia_iterations", float64(ev.Stats().CDiamondIterations))
		}
	}
	warm, err := knowledge.Parse("Cbox E1")
	if err != nil {
		return err
	}
	t.ms("knowledge.fill_warm_ms", rec.Do(lab, "knowledge.fill_warm", func(int) { hot.Eval(warm) }))
	cdia, err := knowledge.Parse("Cdia E0")
	if err != nil {
		return err
	}
	par := knowledge.NewEvaluator(sys)
	par.SetParallelism(runtime.GOMAXPROCS(0))
	t.ms("knowledge.fill_par_ms", rec.Do(lab, "knowledge.fill_par", func(int) { par.Eval(cdia) }))
	runtime.ReadMemStats(&after)
	res.add("knowledge.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)

	var scans []time.Duration
	for i := 0; i < t.smallReps(); i++ {
		start := time.Now()
		scanSink = table.All()
		scanSink = scanSink && table.Count()+table.FirstZero() > 0
		scans = append(scans, time.Since(start))
	}
	res.add("knowledge.scan_us", micros(medianDuration(scans))/float64(len(t.pop.Keys)))

	return t.storeLab(k, lab, rep)
}

// storeLab measures the snapshot codec and the store's cold, restore
// and result paths for one key. All keys share t.dir, which the
// service lab then serves from.
func (t *tracedPass) storeLab(k Key, lab int, rep *replica) error {
	res, rec := t.res, t.rec
	sk, err := k.storeKey()
	if err != nil {
		return err
	}
	var data []byte
	t.ms("store.encode_ms", rec.Do(lab, "store.encode", func(int) { data, err = store.EncodeSystem(sk, rep.sys) }))
	if err != nil {
		return err
	}
	res.add("store.snapshot_mb", float64(len(data))/1e6)
	t.ms("store.decode_ms", rec.Do(lab, "store.decode", func(int) { _, _, err = store.DecodeSystem(data) }))
	if err != nil {
		return err
	}

	open := func() (*store.Store, error) { return store.Open(t.dir, 0) }
	load := func(st *store.Store, metric, span string, want store.Origin) error {
		var origin store.Origin
		var err error
		d := rec.Do(lab, span, func(int) { _, origin, err = st.System(sk) })
		if err != nil {
			return err
		}
		if origin != want {
			return fmt.Errorf("store.System answered from %s, expected %s", origin, want)
		}
		if metric != "" {
			t.ms(metric, d)
		}
		return nil
	}
	st, err := open()
	if err != nil {
		return err
	}
	// The directory has no snapshot of this key yet: enumerate, encode,
	// atomic write.
	if err := load(st, "store.cold_ms", "store.cold", store.OriginEnumerated); err != nil {
		return err
	}
	if st, err = open(); err != nil {
		return err
	}
	if err := load(st, "store.restore_ms", "store.restore", store.OriginDisk); err != nil {
		return err
	}

	// One truth table through the store: computed and written, then
	// read back by a fresh store, then hit in memory.
	f, err := knowledge.Parse(Formulas[1])
	if err != nil {
		return err
	}
	canonical := f.String()
	compute := func(sys *system.System) (*knowledge.Bits, error) {
		return knowledge.NewEvaluator(sys).Eval(f), nil
	}
	if _, _, err := st.Result(sk, canonical, compute); err != nil {
		return err
	}
	if st, err = open(); err != nil {
		return err
	}
	if err := load(st, "", "store.restore", store.OriginDisk); err != nil {
		return err
	}
	var origin store.Origin
	t.ms("store.result_disk_ms", rec.Do(lab, "store.result_disk", func(int) { _, origin, err = st.Result(sk, canonical, compute) }))
	if err != nil {
		return err
	}
	if origin != store.OriginDisk {
		return fmt.Errorf("store.Result answered from %s, expected disk", origin)
	}
	var hits []time.Duration
	for i := 0; i < t.smallReps(); i++ {
		start := time.Now()
		if _, _, err := st.Result(sk, canonical, compute); err != nil {
			return err
		}
		hits = append(hits, time.Since(start))
	}
	res.add("store.result_hit_us", micros(medianDuration(hits))/float64(len(t.pop.Keys)))
	return nil
}

// memWriter is the in-memory http.ResponseWriter the handler
// measurements write into.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

// serve pushes one request body through the handler.
func serve(h http.Handler, path string, body []byte) (*memWriter, time.Duration) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and path
	}
	w := &memWriter{header: make(http.Header), status: http.StatusOK}
	start := time.Now()
	h.ServeHTTP(w, req)
	return w, time.Since(start)
}

// newServer assembles store, engine and server the way cmd/ebad does
// with its default flags (admission caps, flight recorder, trace ring).
func newServer(dir string, maxMem int) (*service.Server, *service.Engine, *store.Store, error) {
	telemetry.SetEnabled(true)
	telemetry.SetRing(4096)
	st, err := store.Open(dir, maxMem)
	if err != nil {
		return nil, nil, nil, err
	}
	eng := service.NewEngine(st, 5*time.Minute)
	srv := service.NewServer(eng)
	srv.SetAdmission(service.AdmissionConfig{
		MaxInflight: 64, PerKey: 4, MaxQueue: 256,
		QueueTimeout: time.Second, RetryAfter: time.Second,
	})
	err = srv.SetObservability(service.ObservabilityConfig{
		SlowThreshold: 250 * time.Millisecond,
		IncidentDir:   filepath.Join(dir, "incidents"),
	})
	return srv, eng, st, err
}

// serviceRequest is the request as the engine's Go API takes it.
func (p *Population) serviceRequest(r Request) service.Request {
	k := p.Keys[r.Key]
	return service.Request{Formula: Formulas[r.Formula], N: k.N, T: k.T, Mode: k.Mode, Horizon: k.H}
}

// checkBody verifies a single-query response body against the golden.
func (t *tracedPass) checkBody(r Request, w *memWriter, want *Origins) {
	t.res.Attempted++
	if w.status != http.StatusOK {
		t.res.add("service.shed", 1)
		t.res.fail("handler status %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
		return
	}
	var a wireAnswer
	if err := json.Unmarshal(w.body.Bytes(), &a); err != nil {
		t.res.fail("handler response: %v", err)
		return
	}
	if err := verify(t.g, t.pop, r, &a, want); err != nil {
		t.res.fail("%v", err)
	}
}

// serviceLab times the service layer's entry points, outermost last,
// on a memory-resident server over the workload's request population:
// Resolve, ExecuteSync, Execute, the HTTP handler, the retrying client
// over a loopback listener, and the batch paths. Each number is the
// median per call; the differences between neighbours price the layer
// in between (codec = handler - execute_async, http = client - handler).
func (t *tracedPass) serviceLab() error {
	res, rec := t.res, t.rec
	lab := rec.Start(t.root, spanLab)
	defer rec.End(lab)
	srv, eng, _, err := newServer(t.dir, 0)
	if err != nil {
		return err
	}
	ctx := context.Background()
	all := t.pop.All()
	for _, r := range all {
		if _, err := eng.Execute(ctx, t.pop.serviceRequest(r)); err != nil {
			return fmt.Errorf("bench: warm %v: %w", r, err)
		}
	}
	// Every loop below times only the call into the layer; decoding
	// and verifying the answer happen outside the clock.
	reps := t.size.LabReps
	loop := func(span string, call func(r Request) (time.Duration, error)) (float64, error) {
		each := make([]time.Duration, 0, reps)
		var err error
		rec.Do(lab, span, func(int) {
			for i := 0; i < reps && err == nil; i++ {
				var d time.Duration
				d, err = call(all[i%len(all)])
				each = append(each, d)
			}
		})
		return micros(medianDuration(each)), err
	}
	timed := func(metric, span string, call func(r Request) (time.Duration, error)) error {
		us, err := loop(span, call)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", span, err)
		}
		res.set(metric, us)
		return nil
	}
	clock := func(fn func() error) (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}

	if err := timed("service.resolve_us", "service.resolve", func(r Request) (time.Duration, error) {
		return clock(func() error { _, _, err := eng.Resolve(t.pop.serviceRequest(r)); return err })
	}); err != nil {
		return err
	}
	if err := timed("service.execute_us", "service.execute", func(r Request) (time.Duration, error) {
		return clock(func() error { _, err := eng.ExecuteSync(ctx, t.pop.serviceRequest(r)); return err })
	}); err != nil {
		return err
	}
	if err := timed("service.execute_async_us", "service.execute_async", func(r Request) (time.Duration, error) {
		return clock(func() error { _, err := eng.Execute(ctx, t.pop.serviceRequest(r)); return err })
	}); err != nil {
		return err
	}

	h := srv.Handler()
	var sizes []float64
	handler := func(r Request) (time.Duration, error) {
		w, d := serve(h, "/v1/query", t.pop.Body(r))
		t.checkBody(r, w, &resident)
		sizes = append(sizes, float64(w.body.Len()))
		return d, nil
	}
	if err := timed("service.handler_us", "service.handler", handler); err != nil {
		return err
	}
	res.set("service.response_bytes", median(sizes))
	// The same loop with the daemon's default instrumentation off
	// prices the trace ring and the metric handles.
	telemetry.SetRing(0)
	telemetry.SetEnabled(false)
	bare, err := loop("service.handler_bare", handler)
	telemetry.SetEnabled(true)
	telemetry.SetRing(4096)
	if err != nil {
		return err
	}
	handlerUS := res.Metrics["service.handler_us"].Value
	res.set("telemetry.overhead_us", handlerUS-bare)
	res.set("service.codec_us", handlerUS-res.Metrics["service.execute_async_us"].Value)

	// Batches: the engine path without HTTP, then through the handler.
	items := t.size.BatchItems
	stream := t.pop.NewStream(t.res.Workload, t.seed, 0)
	breps := max(reps/items, 5)
	var direct, handled []time.Duration
	bdo := rec.Start(lab, "service.batch")
	for i := 0; i < breps; i++ {
		rs := stream.Take(items)
		reqs := make([]service.Request, items)
		for j, r := range rs {
			reqs[j] = t.pop.serviceRequest(r)
		}
		start := time.Now()
		out := srv.ExecuteBatch(ctx, reqs)
		direct = append(direct, time.Since(start)/time.Duration(items))
		for _, it := range out {
			if it.Response == nil {
				res.add("service.shed", 1)
			}
		}
		w, d := serve(h, "/v1/query/batch", t.pop.BatchBody(rs))
		handled = append(handled, d/time.Duration(items))
		t.checkBatch(rs, w)
	}
	rec.End(bdo)
	res.set("service.batch_item_us", micros(medianDuration(direct)))
	res.set("service.batch_handler_item_us", micros(medianDuration(handled)))

	// Last, because shutting the listener down leaves the server
	// draining: the retrying client over real loopback HTTP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, ln, time.Second) }()
	cl := service.NewClient("http://" + ln.Addr().String())
	err = timed("service.client_us", "service.client", func(r Request) (time.Duration, error) {
		var resp *service.Response
		d, err := clock(func() (err error) { resp, err = cl.Query(ctx, t.pop.serviceRequest(r)); return err })
		if err != nil {
			return d, err
		}
		t.res.Attempted++
		a := wireAnswer{Valid: resp.Valid, TruePoints: resp.TruePoints, TotalPoints: resp.TotalPoints}
		a.System.Origin, a.ResultOrigin = resp.System.Origin, resp.ResultOrigin
		if err := verify(t.g, t.pop, r, &a, &resident); err != nil {
			t.res.fail("%v", err)
		}
		return d, nil
	})
	res.add("service.shed", float64(cl.Sheds()))
	cancel()
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	res.set("service.http_us", res.Metrics["service.client_us"].Value-handlerUS)
	return nil
}

// checkBatch verifies every item of a batch response body.
func (t *tracedPass) checkBatch(rs []Request, w *memWriter) {
	var wb wireBatch
	err := json.Unmarshal(w.body.Bytes(), &wb)
	if err == nil && (w.status != http.StatusOK || len(wb.Results) != len(rs)) {
		err = fmt.Errorf("status %d, %d results for %d queries", w.status, len(wb.Results), len(rs))
	}
	if err != nil {
		for range rs {
			t.res.Attempted++
			t.res.fail("batch handler: %v", err)
		}
		return
	}
	for i, it := range wb.Results {
		t.res.Attempted++
		if it.Response == nil {
			t.res.add("service.shed", 1)
			t.res.fail("batch item status %d", it.Status)
		} else if err := verify(t.g, t.pop, rs[i], it.Response, &resident); err != nil {
			t.res.fail("%v", err)
		}
	}
}

// replay pushes the head of client 0's seeded sequence through an
// in-process server prepared exactly as the workload's set-up prepares
// the daemon, one span per request, and reads the store's counters.
// For the query workloads this is the pipeline, run once without the
// recorder first to price the spans; for cold-verdict (which makes no
// requests) it is run once, over the cold keys, for the counters only.
func (t *tracedPass) replay() error {
	workload, cold := t.res.Workload, t.res.Workload == ColdVerdict
	churn := workload == QueryChurn
	var rs []Request
	if churn {
		// The head of the very sequence the end-to-end pass sends.
		all := t.pop.Sequence(workload, t.seed, t.size.ChurnRequests)
		rs = all[:min(t.size.ReplayRequests, len(all))]
	} else {
		rs = t.pop.NewStream(workload, t.seed, 0).Take(t.size.LabReps * 4)
	}
	n := len(rs)
	if !cold {
		t.overheadBase = fmt.Sprintf("traced / untraced wall of the in-process replay of the first %d requests, s", n)
	}

	once := func(rec *Recorder, group string, dir string) (store.Stats, time.Duration, error) {
		maxMem := 0
		if churn {
			maxMem = t.size.ChurnMaxMem
			if err := populateSnapshots(dir, t.pop.Keys); err != nil {
				return store.Stats{}, 0, err
			}
		}
		srv, eng, st, err := newServer(dir, maxMem)
		if err != nil {
			return store.Stats{}, 0, err
		}
		if !churn {
			for _, r := range t.pop.All() {
				if _, err := eng.Execute(context.Background(), t.pop.serviceRequest(r)); err != nil {
					return store.Stats{}, 0, err
				}
			}
		}
		h := srv.Handler()
		base := st.Stats()
		model := NewChurnModel(t.size.ChurnMaxMem)
		// Answers are verified after the pipeline span closes, so the
		// span holds handler time and not the benchmark's own decoding.
		var checks []func()
		parent := rec.Start(t.root, group)
		start := time.Now()
		if workload == QueryBatch {
			for queue := rs; len(queue) > 0; {
				part := queue[:min(len(queue), t.size.BatchItems)]
				var w *memWriter
				rec.Do(parent, "service.handler", func(int) { w, _ = serve(h, "/v1/query/batch", t.pop.BatchBody(part)) })
				checks = append(checks, func() { t.checkBatch(part, w) })
				queue = queue[len(part):]
			}
		} else {
			for _, r := range rs {
				want := resident
				if churn {
					want = model.Serve(r)
				}
				var w *memWriter
				rec.Do(parent, "service.handler", func(int) { w, _ = serve(h, "/v1/query", t.pop.Body(r)) })
				checks = append(checks, func() { t.checkBody(r, w, &want) })
			}
		}
		wall := time.Since(start)
		rec.End(parent)
		for _, check := range checks {
			check()
		}
		got := st.Stats()
		if churn && (int(got.SystemDiskHits) != model.Restores || int(got.Evictions) != model.Evictions ||
			int(got.ResultComputes) != model.Computes || int(got.ResultDiskHits) != model.ResultDiskHits) {
			t.res.fail("store counters %+v disagree with the LRU model %+v", got, *model)
		}
		got.SystemMemoryHits -= base.SystemMemoryHits
		got.SystemDiskHits -= base.SystemDiskHits
		got.Enumerations -= base.Enumerations
		got.Evictions -= base.Evictions
		got.ResultComputes -= base.ResultComputes
		return got, wall, nil
	}

	dir := t.dir
	if churn {
		// Churn starts from snapshots and no result files, which the
		// shared lab directory no longer is.
		dir = t.dir + "-replay"
		defer os.RemoveAll(dir)
	}
	group := spanPipeline
	if cold {
		group = spanLab
	} else {
		_, wall, err := once(nil, "", dir)
		if err != nil {
			return err
		}
		t.untracedWall = wall
		if churn {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	stats, wall, err := once(t.rec, group, dir)
	if err != nil {
		return err
	}
	if !cold {
		t.tracedWall = wall
	}
	t.res.set("store.mem_hits", float64(stats.SystemMemoryHits))
	t.res.set("store.disk_hits", float64(stats.SystemDiskHits))
	t.res.set("store.enumerations", float64(stats.Enumerations))
	t.res.set("store.evictions", float64(stats.Evictions))
	t.res.set("store.result_computes", float64(stats.ResultComputes))
	loads := float64(stats.SystemMemoryHits + stats.SystemDiskHits + stats.Enumerations)
	hit := NewRatio(float64(stats.SystemMemoryHits), loads, "system loads answered from memory / all system loads in the replay, count")
	t.res.Ratios["store.hit_ratio"] = hit
	t.res.set("store.hit_ratio", hit.Value)
	t.res.Counts["replayed_requests"] = n
	return nil
}
