// Package bench is the repository's one benchmark: four named
// workloads, end-to-end metrics measured from outside the real
// ebacheck and ebad binaries, and a separate in-process traced pass
// that attributes time to layers (packages). cmd/ebabench is its
// command line; README.md in this directory is the contract later
// performance issues are written against.
package bench

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
)

// SchemaVersion tags every result file the benchmark writes.
const SchemaVersion = 1

// Workload names, as they appear in BENCHMARK.json and on -workload.
const (
	ColdVerdict = "cold-verdict"
	QueryCached = "query-cached"
	QueryBatch  = "query-batch"
	QueryChurn  = "query-churn"
)

// Workload is a workload's entry in BENCHMARK.json: its name and the
// one-line reason it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists every workload; the order is the order a full run
// executes them in.
var Workloads = []Workload{
	{ColdVerdict, "ebacheck from a cold process on the largest systems enumerated (1.2M points): failures/views/system/knowledge/protocols/core do all the work, store and service none"},
	{QueryCached, "closed loop, 2 clients, single POST /v1/query over 7 memory-resident keys x 4 formulas: HTTP/JSON/admission/recorder cost is most of the work, evaluation almost none"},
	{QueryBatch, "same daemon and request population in 512-item POST /v1/query/batch: per-item engine/store-memo/scan cost dominates and HTTP is amortised"},
	{QueryChurn, "ebad -maxmem 3 over 7 snapshots and 8 formulas, 1 client, fixed seeded sequence: working set exceeds memory, so store decode/LRU/disk reads and writes and warm fills dominate"},
}

// Key names one enumerated system the way the binaries' flags do.
type Key struct {
	Mode    string
	N, T, H int
}

// Slug is the key's name in goldens, reports and span labels.
func (k Key) Slug() string { return fmt.Sprintf("%s-n%d-t%d-h%d", k.Mode, k.N, k.T, k.H) }

// small marks the keys the traced pass can afford to run twice (once
// untraced) to price its own spans.
func (k Key) small() bool { return k.N == 3 }

// storeKey resolves the key exactly as the daemon resolves a request
// for it, so in-process stores and the daemon share snapshot files.
func (k Key) storeKey() (store.Key, error) {
	mode, err := failures.ParseMode(k.Mode)
	if err != nil {
		return store.Key{}, err
	}
	sk := store.Key{N: k.N, T: k.T, Mode: mode, Horizon: k.H}
	if mode != failures.Crash {
		sk.Limit = service.DefaultOmissionLimit
	}
	return sk, nil
}

// The systems under test. The first two are the large ones: the cold
// workload runs them a second time at default parallelism.
var (
	keyOm422   = Key{"omission", 4, 2, 2}
	keyCr424   = Key{"crash", 4, 2, 4}
	keyOm413   = Key{"omission", 4, 1, 3}
	keyGen312  = Key{"general-omission", 3, 1, 2}
	keyRecv312 = Key{"receiving-omission", 3, 1, 2}
	keyCr313   = Key{"crash", 3, 1, 3}
	keyOm313   = Key{"omission", 3, 1, 3}

	// AllKeys is every key any workload touches, largest first.
	AllKeys = []Key{keyOm422, keyCr424, keyOm413, keyGen312, keyRecv312, keyCr313, keyOm313}
)

// Formulas is the query population in the ebaq syntax. The first four
// are what query-cached and query-batch draw from; query-churn draws
// from all eight.
var Formulas = []string{
	"C E0 -> Cbox E0",
	"Cbox E0 -> C E0",
	"K0 E0",
	"E E0 -> Cbox E0",
	"Cdia E0",
	"B1 E1",
	"C E1 -> Cbox E1",
	"ev K1 E1",
}

// churnWeights skews query-churn's key popularity toward the small
// systems (percent, in AllKeys order): the large snapshots are asked
// for rarely enough to have been evicted by the next time.
var churnWeights = []int{2, 4, 8, 16, 24, 24, 22}

// quickChurnWeights is the same skew over the four n=3 keys.
var quickChurnWeights = []int{10, 30, 30, 30}

// Size is everything that scales a run. Full sizes are functions of
// the -seconds flag only, never of measured time, so two runs with the
// same flags do the same work.
type Size struct {
	// ColdKeys run serially (-parallel 1) each iteration; ParKeys run
	// again at default parallelism.
	ColdKeys, ParKeys []Key
	QueryKeys         []Key
	ChurnWeights      []int
	// ColdIterations is the number of measured cold iterations.
	ColdIterations int
	// Window bounds the closed-loop workloads in time (full runs);
	// LoopRequests bounds them in requests per client (quick runs).
	WindowSeconds int
	LoopRequests  int
	// ChurnRequests is query-churn's fixed sequence length, ChurnMaxMem
	// its daemon's -maxmem.
	ChurnRequests int
	ChurnMaxMem   int
	BatchItems    int
	Clients       int
	// SetupRepeats is how many times set-up is performed; setup_s is
	// the median.
	SetupRepeats int
	// LabReps sizes the traced pass's per-request loops, ReplayRequests
	// its sequence replay.
	LabReps        int
	ReplayRequests int
}

// Calibration constants, taken once on the 2-CPU dev box.
const (
	// coldIterationSeconds is one cold iteration (five serial keys plus
	// the two large ones in parallel) rounded down.
	coldIterationSeconds = 12
	// churnRequestsPerSecond converts -seconds to query-churn's fixed
	// sequence length: 1200 requests took 17.9 s at seed 1.
	churnRequestsPerSecond = 67
)

// FullSize is the committed workload definition at the given
// measurement length.
func FullSize(seconds int) Size {
	return Size{
		ColdKeys:       AllKeys[:5],
		ParKeys:        AllKeys[:2],
		QueryKeys:      AllKeys,
		ChurnWeights:   churnWeights,
		ColdIterations: max(1, seconds/coldIterationSeconds),
		WindowSeconds:  seconds,
		ChurnRequests:  seconds * churnRequestsPerSecond,
		ChurnMaxMem:    3,
		BatchItems:     512,
		Clients:        2,
		SetupRepeats:   3,
		LabReps:        2000,
		ReplayRequests: 200,
	}
}

// QuickSize is the toy size the tier-1 smoke tests run: n=3 keys
// only, about a hundred requests, one iteration.
func QuickSize() Size {
	small := AllKeys[3:]
	return Size{
		ColdKeys:       small[:2],
		ParKeys:        small[:1],
		QueryKeys:      small,
		ChurnWeights:   quickChurnWeights,
		ColdIterations: 1,
		WindowSeconds:  60,
		LoopRequests:   50,
		ChurnRequests:  100,
		ChurnMaxMem:    2,
		BatchItems:     16,
		Clients:        2,
		SetupRepeats:   1,
		LabReps:        40,
		ReplayRequests: 100,
	}
}

// Metric is one named number with its unit, its good direction and —
// for end-to-end metrics — the share of the parent's median by which
// it may get worse before a change counts as a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics every workload reports from outside the
// binaries with tracing off; BENCHMARK.json lists exactly these. The
// bounds sit at the contract's cap because the calibration box's speed
// on identical work drifts by 10-20% over minutes (README, "Bounds").
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"server_cpu_us_per_query", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// WorkloadEndToEnd are end-to-end metrics that exist on one workload
// only. The driver's contract measures every BENCHMARK.json metric on
// every workload and refuses zeros, so these stay out of that file;
// they are printed, written to the result file and gated by -selfcheck
// with the bounds below.
var WorkloadEndToEnd = map[string][]Metric{
	ColdVerdict: {
		{"verdict_s", "s", "lower", 0.25},
		{"verdict_par_s", "s", "lower", 0.25},
		{"verdict_cpu_s", "s", "lower", 0.25},
	},
	QueryChurn: {
		{"restore_s", "s", "lower", 0.25},
	},
}

// PerLayer are the traced pass's metrics, layer = package name.
var PerLayer = []Metric{
	{Name: "failures.enum_ms", Unit: "ms", Better: "lower"},
	{Name: "failures.patterns", Unit: "count", Better: "lower"},
	{Name: "views.intern_ms", Unit: "ms", Better: "lower"},
	{Name: "views.nodes", Unit: "count", Better: "lower"},
	{Name: "system.build_ms", Unit: "ms", Better: "lower"},
	{Name: "system.index_ms", Unit: "ms", Better: "lower"},
	{Name: "system.build_par_ms", Unit: "ms", Better: "lower"},
	{Name: "system.runs", Unit: "count", Better: "lower"},
	{Name: "system.points", Unit: "count", Better: "lower"},
	{Name: "system.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "system.allocs", Unit: "count", Better: "lower"},
	{Name: "knowledge.parse_us", Unit: "us", Better: "lower"},
	{Name: "knowledge.fill_k_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.fill_e_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.fill_c_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.fill_cbox_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.fill_cdia_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.fill_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.fill_par_ms", Unit: "ms", Better: "lower"},
	{Name: "knowledge.cdia_iterations", Unit: "count", Better: "lower"},
	{Name: "knowledge.scan_us", Unit: "us", Better: "lower"},
	{Name: "knowledge.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "protocols.pairs_ms", Unit: "ms", Better: "lower"},
	{Name: "core.twostep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.optimal_ms", Unit: "ms", Better: "lower"},
	{Name: "core.check_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dominance_ms", Unit: "ms", Better: "lower"},
	{Name: "store.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "store.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "store.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "store.cold_ms", Unit: "ms", Better: "lower"},
	{Name: "store.restore_vs_build", Unit: "ratio", Better: "lower"},
	{Name: "store.result_hit_us", Unit: "us", Better: "lower"},
	{Name: "store.result_disk_ms", Unit: "ms", Better: "lower"},
	{Name: "store.mem_hits", Unit: "count", Better: "higher"},
	{Name: "store.disk_hits", Unit: "count", Better: "lower"},
	{Name: "store.enumerations", Unit: "count", Better: "lower"},
	{Name: "store.evictions", Unit: "count", Better: "lower"},
	{Name: "store.result_computes", Unit: "count", Better: "lower"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.resolve_us", Unit: "us", Better: "lower"},
	{Name: "service.execute_us", Unit: "us", Better: "lower"},
	{Name: "service.execute_async_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_us", Unit: "us", Better: "lower"},
	{Name: "service.codec_us", Unit: "us", Better: "lower"},
	{Name: "service.client_us", Unit: "us", Better: "lower"},
	{Name: "service.http_us", Unit: "us", Better: "lower"},
	{Name: "service.batch_item_us", Unit: "us", Better: "lower"},
	{Name: "service.batch_handler_item_us", Unit: "us", Better: "lower"},
	{Name: "service.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.shed", Unit: "count", Better: "lower"},
	{Name: "telemetry.overhead_us", Unit: "us", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// ExactCounts are the per-layer metrics that must repeat exactly
// between two runs of one commit with one seed.
var ExactCounts = []string{
	"failures.patterns", "views.nodes", "system.runs", "system.points",
	"knowledge.cdia_iterations",
	"store.mem_hits", "store.disk_hits", "store.enumerations",
	"store.evictions", "store.result_computes",
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// RunSeconds is BENCHMARK.json's run_seconds and the default -seconds:
// as long as the driver's cap on all its runs together allows with an
// eighth to spare in a slow hour (README, "Run length").
const RunSeconds = 30

// TheManifest renders the tables above as BENCHMARK.json; a test keeps
// the committed file equal to it.
func TheManifest() Manifest {
	return Manifest{
		Command:    []string{"go", "run", "./cmd/ebabench"},
		Paths:      []string{"cmd/ebabench", "internal/bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
}
