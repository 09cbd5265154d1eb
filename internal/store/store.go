package store

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
)

// Telemetry handles. System requests are labelled by where they were
// satisfied; load times separate the decode path from the enumerate
// path — the ratio between those two histograms is the store's whole
// reason to exist.
var (
	mSysMem      = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "memory"))
	mSysDisk     = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "disk"))
	mSysEnum     = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "enumerated"))
	mSysShared   = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "shared"))
	mResMem      = telemetry.Default().Counter("eba_store_result_requests_total", telemetry.L("result", "memory"))
	mResDisk     = telemetry.Default().Counter("eba_store_result_requests_total", telemetry.L("result", "disk"))
	mResComputed = telemetry.Default().Counter("eba_store_result_requests_total", telemetry.L("result", "computed"))
	mEvictions   = telemetry.Default().Counter("eba_store_evictions_total")
	mDiskErrors  = telemetry.Default().Counter("eba_store_disk_errors_total")
	mMemEntries  = telemetry.Default().Gauge("eba_store_mem_entries")
	mLoadDisk    = telemetry.Default().Histogram("eba_store_load_seconds", loadBuckets, telemetry.L("source", "disk"))
	mLoadEnum    = telemetry.Default().Histogram("eba_store_load_seconds", loadBuckets, telemetry.L("source", "enumerate"))
	mQuarantined = telemetry.Default().Counter("eba_store_quarantined_total")
)

// loadBuckets are the load-time histogram's bounds in seconds. Restores
// of the larger snapshots take 20–100 ms, so that decade is cut finer.
var loadBuckets = []float64{0.0001, 0.001, 0.01, 0.025, 0.05, 0.1, 0.5, 1, 5, 30}

// ErrRetryable marks transient store failures where the same call may
// well succeed if simply retried: in particular, a singleflight
// follower whose leader's shared load failed. The follower did not
// cause the failure and must not treat the leader's error as its own
// verdict — the service layer maps this to 503 + Retry-After.
var ErrRetryable = errors.New("store: retryable")

// Origin says where a store answer came from.
type Origin int

// Origins, cheapest first.
const (
	OriginMemory Origin = iota
	OriginDisk
	OriginEnumerated
	// OriginShared marks an answer obtained by waiting on another
	// request's in-flight load (singleflight deduplication).
	OriginShared
)

// String names the origin for JSON responses and logs.
func (o Origin) String() string {
	switch o {
	case OriginMemory:
		return "memory"
	case OriginDisk:
		return "disk"
	case OriginEnumerated:
		return "enumerated"
	case OriginShared:
		return "shared"
	default:
		return fmt.Sprintf("Origin(%d)", int(o))
	}
}

// Stats are the store's cumulative cache statistics.
type Stats struct {
	SystemMemoryHits uint64 `json:"system_memory_hits"`
	SystemDiskHits   uint64 `json:"system_disk_hits"`
	Enumerations     uint64 `json:"enumerations"`
	SharedLoads      uint64 `json:"shared_loads"`
	ResultMemoryHits uint64 `json:"result_memory_hits"`
	ResultDiskHits   uint64 `json:"result_disk_hits"`
	ResultComputes   uint64 `json:"result_computes"`
	Evictions        uint64 `json:"evictions"`
	DiskErrors       uint64 `json:"disk_errors"`
	Quarantined      uint64 `json:"quarantined"`
}

// Answer is one memoized truth table together with the facts every
// query reads off it: how many points satisfy the formula and the
// first point that does not. They are filled once, when the table
// enters the memo, so a memory hit never scans the table. An Answer is
// shared and must not be modified.
type Answer struct {
	Table *knowledge.Bits
	// True counts the points where the formula holds.
	True int
	// First is the index of the first falsifying point, -1 when the
	// formula is valid.
	First int
	// Witness describes the point First; nil when the formula is valid.
	Witness *Witness
}

// Witness is a falsifying point as a counterexample prints it: its run
// and time, with the run's initial configuration and failure pattern
// rendered as text.
type Witness struct {
	Run, Time       int
	Config, Pattern string
}

func newAnswer(sys *system.System, tbl *knowledge.Bits) *Answer {
	a := &Answer{Table: tbl, True: tbl.Count(), First: tbl.FirstZero()}
	if a.First >= 0 {
		pt := sys.PointAt(a.First)
		run := sys.RunOf(pt)
		a.Witness = &Witness{
			Run: run.Index, Time: int(pt.Time),
			Config: run.Config().String(), Pattern: run.Pattern().String(),
		}
	}
	return a
}

// entry is one resident system plus its memoized answers, which live
// and die with it.
type entry struct {
	key     Key
	sys     *system.System
	digest  string // content address; "" when the store is memory-only
	size    int    // encoded snapshot size in bytes
	results map[string]*Answer
	elem    *list.Element
	loaded  time.Time
	origin  Origin
}

// flight is one in-progress system load; later requests for the same
// key wait on done instead of loading again.
type flight struct {
	done   chan struct{}
	sys    *system.System
	ans    *Answer
	origin Origin
	err    error
}

type resultFlightKey struct {
	key     Key
	formula string
}

// Store is the snapshot store: an LRU-bounded in-memory layer over an
// optional on-disk layer, with singleflight deduplication on both
// system loads and truth-table computations. All methods are safe for
// concurrent use.
type Store struct {
	dir    string // "" = memory-only
	maxMem int
	fsys   FS // all disk traffic; OSFS in production, wrappable for fault injection

	mu        sync.Mutex
	entries   map[Key]*entry
	lru       *list.List // front = most recent; values are *entry
	inflight  map[Key]*flight
	resFlight map[resultFlightKey]*flight
	stats     Stats
	// byDigest maps learned snapshot content addresses to their keys,
	// so peer replication can serve GET /v1/snapshot/{sha256} without
	// rescanning the snapshot directory on every request.
	byDigest map[string]Key

	// enumerate builds a system on a full miss; a test hook, and the
	// place a future multi-backend store would plug in remote builds.
	enumerate func(Key) (*system.System, error)

	// quarantineHook, when set, observes every successful quarantine
	// move with the destination path. The flight recorder uses it to
	// dump the trace ring when corruption surfaces.
	quarantineHook func(path string)

	// readBuf is the snapshot read buffer, lent to one load at a time
	// (readLent, under mu), so a restore reads into memory that is
	// already faulted in instead of a fresh slice. A decoded system
	// holds no reference into it. It grows to the largest snapshot
	// read.
	readBuf  []byte
	readLent bool
}

// DefaultMaxMem is the default in-memory system bound. Systems are the
// big artifact (tens to hundreds of MB enumerated); the disk layer
// makes re-admission after eviction cheap.
const DefaultMaxMem = 8

// Open creates a store rooted at dir, creating the directory layout if
// needed. dir == "" gives a memory-only store (no persistence). maxMem
// bounds the number of in-memory systems; maxMem <= 0 means
// DefaultMaxMem. Opening a persistent store runs a recovery scan:
// leftover temp files and snapshots failing their integrity envelope
// are moved to dir/quarantine, never served and never deleted.
func Open(dir string, maxMem int) (*Store, error) {
	return OpenWithFS(dir, maxMem, OSFS{})
}

// OpenWithFS is Open with an explicit filesystem — the seam the
// store tests' fault injectors wrap to tear writes or fail I/O.
func OpenWithFS(dir string, maxMem int, fsys FS) (*Store, error) {
	if maxMem <= 0 {
		maxMem = DefaultMaxMem
	}
	if fsys == nil {
		fsys = OSFS{}
	}
	if dir != "" {
		for _, sub := range []string{"systems", "results"} {
			if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
		}
	}
	s := &Store{
		dir:       dir,
		maxMem:    maxMem,
		fsys:      fsys,
		entries:   make(map[Key]*entry),
		lru:       list.New(),
		inflight:  make(map[Key]*flight),
		resFlight: make(map[resultFlightKey]*flight),
		byDigest:  make(map[string]Key),
	}
	s.enumerate = enumerateKey
	s.recoverScan()
	return s, nil
}

// SetEnumerator replaces the cold-path system builder (nil restores
// the default). This is the injection point for fault-injected or
// remote builds; call before serving traffic.
func (s *Store) SetEnumerator(fn func(Key) (*system.System, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fn == nil {
		fn = enumerateKey
	}
	s.enumerate = fn
}

// CachedInMemory reports whether the key's system is resident in the
// memory layer — the admission layer's cheap/expensive classifier: a
// resident system answers from cache in microseconds, anything else
// may cost a disk decode or a full enumeration.
func (s *Store) CachedInMemory(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// recoverScan walks the on-disk layers at boot and quarantines
// anything a crashed writer could have left behind: orphaned temp
// files and files whose integrity envelope (magic, version, SHA-256
// trailer) does not verify. Quarantined files are preserved under
// dir/quarantine for forensics; the healthy path recomputes and
// rewrites them on demand.
func (s *Store) recoverScan() {
	if s.dir == "" {
		return
	}
	s.scanDir(filepath.Join(s.dir, "systems"), VerifySnapshot)
	resRoot := filepath.Join(s.dir, "results")
	subs, err := s.fsys.ReadDir(resRoot)
	if err != nil {
		return
	}
	for _, sub := range subs {
		if sub.IsDir() {
			s.scanDir(filepath.Join(resRoot, sub.Name()), VerifyResult)
		} else if strings.HasPrefix(sub.Name(), ".tmp-") {
			s.quarantine(filepath.Join(resRoot, sub.Name()))
		}
	}
}

func (s *Store) scanDir(dir string, verify func([]byte) error) {
	entries, err := s.fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if strings.HasPrefix(e.Name(), ".tmp-") {
			// A temp file at rest is a write that never committed.
			s.quarantine(path)
			continue
		}
		data, err := s.fsys.ReadFile(path, nil)
		if err != nil {
			continue // unreadable now ≠ corrupt; the read path retries
		}
		if verr := verify(data); verr != nil {
			if errors.Is(verr, ErrVersionSkew) {
				// Checksum-valid blob from a different build sharing the
				// directory. It is not evidence of a crash — leave it in
				// place for the build that wrote it; our read path falls
				// back to enumeration without touching it.
				continue
			}
			s.noteDiskError()
			s.quarantine(path)
		}
	}
}

// quarantine moves a partial or corrupt file into dir/quarantine
// instead of serving or deleting it. Collisions get a numeric suffix
// so repeated crashes never overwrite earlier evidence.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := s.fsys.MkdirAll(qdir, 0o755); err != nil {
		s.noteDiskError()
		return
	}
	base := filepath.Base(path)
	dst := filepath.Join(qdir, base)
	for i := 1; ; i++ {
		if _, err := s.fsys.Stat(dst); err != nil {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := s.fsys.Rename(path, dst); err != nil {
		s.noteDiskError()
		return
	}
	mQuarantined.Inc()
	s.mu.Lock()
	s.stats.Quarantined++
	hook := s.quarantineHook
	s.mu.Unlock()
	telemetry.Emit("store.quarantine", telemetry.L("file", base))
	if hook != nil {
		hook(dst)
	}
}

// SetQuarantineHook registers fn to run after every successful
// quarantine move, with the quarantined file's new path. nil clears
// it. The hook runs synchronously on the quarantining goroutine, so it
// must not call back into the store.
func (s *Store) SetQuarantineHook(fn func(path string)) {
	s.mu.Lock()
	s.quarantineHook = fn
	s.mu.Unlock()
}

// QuarantinedFiles lists the quarantine directory, sorted by name;
// empty for memory-only stores or when nothing was ever quarantined.
func (s *Store) QuarantinedFiles() []string {
	if s.dir == "" {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "quarantine", "*"))
	if err != nil {
		return nil
	}
	for i, m := range matches {
		matches[i] = filepath.Base(m)
	}
	sort.Strings(matches)
	return matches
}

// enumerateKey is the default cold-path builder: the one system
// builder every binary uses.
func enumerateKey(k Key) (*system.System, error) {
	return system.Enumerate(types.Params{N: k.N, T: k.T}, k.Mode, k.Horizon, k.Limit)
}

// Dir returns the store's root directory ("" for memory-only).
func (s *Store) Dir() string { return s.dir }

// Stats returns a copy of the cumulative statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// systemPath is the snapshot file for a key.
func (s *Store) systemPath(key Key) string {
	return filepath.Join(s.dir, "systems", key.Slug()+".eba")
}

// resultPath is the truth-table file for a formula over the system
// with the given content digest.
func (s *Store) resultPath(digest, formula string) string {
	fsum := sha256.Sum256([]byte(formula))
	return filepath.Join(s.dir, "results", digest[:16], hex.EncodeToString(fsum[:12])+".bits")
}

// System returns the enumerated system for the key, from memory, disk,
// or a fresh enumeration (persisted for next time), in that order.
// Concurrent calls for the same key share one load: exactly one
// caller enumerates, the rest wait and report OriginShared.
func (s *Store) System(key Key) (*system.System, Origin, error) {
	return s.SystemCtx(context.Background(), key)
}

// SystemCtx is System with a caller context carrying the request's
// trace: disk decodes, cold enumerations, and singleflight waits show
// up as child spans of the caller's span. The context does not cancel
// the load — a shared load serves other waiters too.
func (s *Store) SystemCtx(ctx context.Context, key Key) (*system.System, Origin, error) {
	if err := key.Validate(); err != nil {
		return nil, OriginEnumerated, err
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		s.stats.SystemMemoryHits++
		s.mu.Unlock()
		mSysMem.Inc()
		return e.sys, OriginMemory, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.stats.SharedLoads++
		s.mu.Unlock()
		mSysShared.Inc()
		// The compute runs in the leader's trace; this follower's own
		// trace records only the wait.
		_, sp := telemetry.StartSpan(ctx, "store.wait", telemetry.L("kind", "system"))
		<-f.done
		sp.End()
		if f.err != nil {
			// The leader's load failed, but this caller never ran it:
			// surface a typed retryable error, not the leader's stale
			// one, so a retry gets a fresh attempt.
			return nil, OriginShared, fmt.Errorf("%w: shared load of %s failed: %v", ErrRetryable, key, f.err)
		}
		return f.sys, OriginShared, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	sys, digest, size, origin, err := s.load(ctx, key)

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil {
		s.admit(key, sys, digest, size, origin)
	}
	f.sys, f.origin, f.err = sys, origin, err
	close(f.done)
	s.mu.Unlock()
	return sys, origin, err
}

// load misses memory: try the disk snapshot, then enumerate and
// persist. Called without the lock held.
func (s *Store) load(ctx context.Context, key Key) (*system.System, string, int, Origin, error) {
	versionSkewed := false
	if s.dir != "" {
		sys, digest, size, skewed := s.restore(ctx, key)
		if sys != nil {
			return sys, digest, size, OriginDisk, nil
		}
		versionSkewed = skewed
	}
	start := time.Now()
	_, enumSp := telemetry.StartSpan(ctx, "store.enumerate", telemetry.L("key", key.Slug()))
	sys, err := s.enumerate(key)
	enumSp.End()
	if err != nil {
		return nil, "", 0, OriginEnumerated, err
	}
	mLoadEnum.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	s.stats.Enumerations++
	s.mu.Unlock()
	mSysEnum.Inc()

	digest, size := "", 0
	if s.dir != "" && !versionSkewed {
		data, err := EncodeSystem(key, sys)
		if err != nil {
			return nil, "", 0, OriginEnumerated, err
		}
		digest, size = Digest(data), len(data)
		if err := s.fsys.WriteAtomic(s.systemPath(key), data); err != nil {
			// Persistence failure degrades to memory-only for this
			// system; the answer itself is still good.
			s.noteDiskError()
		}
	}
	return sys, digest, size, OriginEnumerated, nil
}

// restore reads and decodes key's snapshot file, returning a nil system
// when there is none to serve. skewed reports a valid snapshot written
// by a different build.
func (s *Store) restore(ctx context.Context, key Key) (sys *system.System, digest string, size int, skewed bool) {
	path := s.systemPath(key)
	start := time.Now()
	buf, lent := s.lendReadBuf()
	data, err := s.fsys.ReadFile(path, buf)
	if lent {
		defer s.returnReadBuf(buf, data)
	}
	if err != nil {
		return nil, "", 0, false
	}
	_, decSp := telemetry.StartSpan(ctx, "store.decode", telemetry.L("key", key.Slug()))
	gotKey, sys, derr := DecodeSystem(data)
	decSp.End()
	switch {
	case errors.Is(derr, ErrVersionSkew):
		// A foreign build's valid snapshot is not corruption: leave the
		// file exactly as it is (no quarantine, and no overwrite by the
		// caller — the build that wrote it still wants it) and serve
		// this request from a fresh enumeration, memory-only.
		return nil, "", 0, true
	case derr != nil || gotKey != key:
		// A corrupt snapshot is not fatal: quarantine the evidence and
		// fall through to enumeration, which rewrites a fresh one.
		// Surface the event in stats and telemetry.
		s.noteDiskError()
		s.quarantine(path)
		return nil, "", 0, false
	}
	mLoadDisk.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	s.stats.SystemDiskHits++
	s.mu.Unlock()
	mSysDisk.Inc()
	return sys, Digest(data), len(data), false
}

// lendReadBuf lends the snapshot read buffer to the caller, unless
// another load holds it; then the caller reads into a fresh slice.
func (s *Store) lendReadBuf() ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readLent {
		return nil, false
	}
	s.readLent = true
	return s.readBuf, true
}

// returnReadBuf takes the lent buffer back, keeping whichever of it and
// the data read is larger (a read that outgrew the buffer allocated a
// fresh slice).
func (s *Store) returnReadBuf(buf, data []byte) {
	if cap(data) > cap(buf) {
		buf = data
	}
	s.mu.Lock()
	s.readBuf, s.readLent = buf[:0], false
	s.mu.Unlock()
}

func (s *Store) noteDiskError() {
	mDiskErrors.Inc()
	s.mu.Lock()
	s.stats.DiskErrors++
	s.mu.Unlock()
}

// admit inserts a loaded system into the memory layer, evicting from
// the LRU tail past maxMem. Caller holds the lock.
func (s *Store) admit(key Key, sys *system.System, digest string, size int, origin Origin) {
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		return
	}
	e := &entry{
		key: key, sys: sys, digest: digest, size: size,
		results: make(map[string]*Answer),
		loaded:  time.Now(), origin: origin,
	}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	if digest != "" {
		// Eviction keeps the mapping: the snapshot file outlives the
		// memory entry, and that file is what the mapping points at.
		s.byDigest[digest] = key
	}
	for s.lru.Len() > s.maxMem {
		tail := s.lru.Back()
		old := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.entries, old.key)
		s.stats.Evictions++
		mEvictions.Inc()
	}
	mMemEntries.Set(float64(s.lru.Len()))
}

// Result returns the truth table of formula over the key's system,
// from the entry's memo, the disk layer, or compute, in that order.
// compute runs at most once per (key, formula) at a time; concurrent
// duplicates wait and share its answer. The returned table is shared
// and must not be modified.
func (s *Store) Result(key Key, formula string, compute func(*system.System) (*knowledge.Bits, error)) (*knowledge.Bits, Origin, error) {
	ans, origin, err := s.AnswerCtx(context.Background(), key, formula, compute)
	if err != nil {
		return nil, origin, err
	}
	return ans.Table, origin, nil
}

// AnswerCtx is Result with a caller context carrying the request's
// trace (singleflight waits and the compute itself become child
// spans), returning the memoized Answer: the table plus its true-point
// count and first falsifying point, computed once when the table
// entered the memo. A memory hit is one map lookup.
func (s *Store) AnswerCtx(ctx context.Context, key Key, formula string, compute func(*system.System) (*knowledge.Bits, error)) (*Answer, Origin, error) {
	sys, _, err := s.SystemCtx(ctx, key)
	if err != nil {
		return nil, OriginEnumerated, err
	}
	rk := resultFlightKey{key: key, formula: formula}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		if ans, ok := e.results[formula]; ok {
			s.stats.ResultMemoryHits++
			s.mu.Unlock()
			mResMem.Inc()
			return ans, OriginMemory, nil
		}
	}
	if f, ok := s.resFlight[rk]; ok {
		s.mu.Unlock()
		_, sp := telemetry.StartSpan(ctx, "store.wait", telemetry.L("kind", "result"))
		<-f.done
		sp.End()
		if f.err != nil {
			return nil, OriginShared, fmt.Errorf("%w: shared compute of %q failed: %v", ErrRetryable, formula, f.err)
		}
		return f.ans, OriginShared, nil
	}
	f := &flight{done: make(chan struct{})}
	s.resFlight[rk] = f
	digest := ""
	if e, ok := s.entries[key]; ok {
		digest = e.digest
	}
	s.mu.Unlock()

	tbl, origin, err := s.loadResult(ctx, sys, digest, formula, compute)
	var ans *Answer
	if err == nil {
		ans = newAnswer(sys, tbl)
	}

	s.mu.Lock()
	delete(s.resFlight, rk)
	if err == nil {
		if e, ok := s.entries[key]; ok {
			e.results[formula] = ans
		}
	}
	f.ans, f.origin, f.err = ans, origin, err
	close(f.done)
	s.mu.Unlock()
	return ans, origin, err
}

// loadResult misses the memo: try the disk layer, then compute and
// persist. Called without the lock held.
func (s *Store) loadResult(ctx context.Context, sys *system.System, digest, formula string, compute func(*system.System) (*knowledge.Bits, error)) (*knowledge.Bits, Origin, error) {
	persistable := s.dir != "" && digest != ""
	if persistable {
		path := s.resultPath(digest, formula)
		if data, err := s.fsys.ReadFile(path, nil); err == nil {
			gotFormula, packed, derr := DecodeResult(data)
			if derr == nil && gotFormula == formula {
				var tbl knowledge.Bits
				if err := tbl.UnmarshalBinary(packed); err == nil && tbl.Len() == sys.NumPoints() {
					s.mu.Lock()
					s.stats.ResultDiskHits++
					s.mu.Unlock()
					mResDisk.Inc()
					return &tbl, OriginDisk, nil
				}
			}
			if errors.Is(derr, ErrVersionSkew) {
				// Foreign build's valid result: recompute for this
				// request but neither quarantine nor overwrite the file.
				persistable = false
			} else {
				s.noteDiskError()
				s.quarantine(path)
			}
		}
	}
	_, sp := telemetry.StartSpan(ctx, "store.compute")
	tbl, err := compute(sys)
	sp.End()
	if err != nil {
		return nil, OriginEnumerated, err
	}
	s.mu.Lock()
	s.stats.ResultComputes++
	s.mu.Unlock()
	mResComputed.Inc()
	if persistable {
		packed, err := tbl.MarshalBinary()
		if err == nil {
			err = s.fsys.WriteAtomic(s.resultPath(digest, formula), EncodeResult(formula, packed))
		}
		if err != nil {
			s.noteDiskError()
		}
	}
	return tbl, OriginEnumerated, nil
}

// SystemInfo is one inventory row for GET /v1/systems.
type SystemInfo struct {
	Key       Key    `json:"key"`
	Mode      string `json:"mode"`
	Slug      string `json:"slug"`
	Digest    string `json:"digest,omitempty"`
	Runs      int    `json:"runs"`
	Points    int    `json:"points"`
	Views     int    `json:"views"`
	SizeBytes int    `json:"size_bytes,omitempty"`
	Results   int    `json:"results"`
	Origin    string `json:"origin"`
	LoadedAt  string `json:"loaded_at"`
}

// Inventory lists the in-memory systems, most recently used first.
func (s *Store) Inventory() []SystemInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SystemInfo, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, SystemInfo{
			Key:       e.key,
			Mode:      e.key.Mode.String(),
			Slug:      e.key.Slug(),
			Digest:    e.digest,
			Runs:      e.sys.NumRuns(),
			Points:    e.sys.NumPoints(),
			Views:     e.sys.Interner.Size(),
			SizeBytes: e.size,
			Results:   len(e.results),
			Origin:    e.origin.String(),
			LoadedAt:  e.loaded.UTC().Format(time.RFC3339),
		})
	}
	return out
}

// DigestForSlug resolves a key slug to the content address of the
// snapshot this store holds for it — the first half of the peer
// replication handshake (resolve a key to an address, then fetch the
// bytes by address). It prefers the digest learned when the system was
// admitted; otherwise it reads and verifies the snapshot file. ok is
// false when the store has no verified snapshot for the slug.
func (s *Store) DigestForSlug(slug string) (digest string, ok bool) {
	s.mu.Lock()
	for _, e := range s.entries {
		if e.key.Slug() == slug && e.digest != "" {
			s.mu.Unlock()
			return e.digest, true
		}
	}
	s.mu.Unlock()
	if s.dir == "" {
		return "", false
	}
	path := filepath.Join(s.dir, "systems", slug+".eba")
	data, err := s.fsys.ReadFile(path, nil)
	if err != nil || VerifySnapshot(data) != nil {
		return "", false
	}
	d := Digest(data)
	key, _, derr := DecodeSystem(data)
	if derr == nil {
		s.mu.Lock()
		s.byDigest[d] = key
		s.mu.Unlock()
	}
	return d, true
}

// SnapshotBytes returns the encoded snapshot whose SHA-256 trailer is
// digest — the content-addressed fetch behind GET /v1/snapshot/{sha}.
// The bytes are re-verified against the requested address before being
// served, so a node can never propagate a snapshot that no longer
// matches what the caller asked for.
func (s *Store) SnapshotBytes(digest string) ([]byte, Key, error) {
	if s.dir == "" {
		return nil, Key{}, fmt.Errorf("store: memory-only store has no snapshots")
	}
	s.mu.Lock()
	key, ok := s.byDigest[digest]
	s.mu.Unlock()
	if !ok {
		// Lazy index fill: scan the snapshot directory once for the
		// address. Digests are stored as file trailers, so this is a
		// read per file, not a decode.
		entries, err := s.fsys.ReadDir(filepath.Join(s.dir, "systems"))
		if err != nil {
			return nil, Key{}, fmt.Errorf("store: no snapshot with digest %s", digest)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".eba") {
				continue
			}
			path := filepath.Join(s.dir, "systems", e.Name())
			data, rerr := s.fsys.ReadFile(path, nil)
			if rerr != nil || Digest(data) != digest || VerifySnapshot(data) != nil {
				continue
			}
			k, _, derr := DecodeSystem(data)
			if derr != nil {
				continue
			}
			s.mu.Lock()
			s.byDigest[digest] = k
			s.mu.Unlock()
			return data, k, nil
		}
		return nil, Key{}, fmt.Errorf("store: no snapshot with digest %s", digest)
	}
	data, err := s.fsys.ReadFile(s.systemPath(key), nil)
	if err != nil {
		return nil, Key{}, fmt.Errorf("store: snapshot for %s unreadable: %w", key, err)
	}
	if Digest(data) != digest || VerifySnapshot(data) != nil {
		// The file changed or rotted underneath the index: drop the
		// stale mapping and refuse to serve bytes that don't match the
		// address — the fetcher's digest check would catch it anyway,
		// but a corrupt node must not even try.
		s.mu.Lock()
		delete(s.byDigest, digest)
		s.mu.Unlock()
		s.noteDiskError()
		return nil, Key{}, fmt.Errorf("store: snapshot for %s no longer matches digest %s", key, digest)
	}
	return data, key, nil
}

// QuarantineBlob preserves bytes that failed an integrity check (for
// replication: a peer-fetched snapshot whose digest does not match its
// address) under dir/quarantine, with the same never-overwrite naming
// as crash-recovery quarantine. Memory-only stores drop the evidence.
func (s *Store) QuarantineBlob(name string, data []byte) error {
	if s.dir == "" {
		return fmt.Errorf("store: memory-only store cannot quarantine")
	}
	tmp := filepath.Join(s.dir, ".blob-"+name)
	if err := s.fsys.WriteAtomic(tmp, data); err != nil {
		s.noteDiskError()
		return err
	}
	s.quarantine(tmp)
	return nil
}

// EnumerateLocal builds the key's system with the store's own local
// builder, regardless of any enumerator installed with SetEnumerator.
// It is the fallback a replicating enumerator uses when no peer has
// the snapshot.
func (s *Store) EnumerateLocal(key Key) (*system.System, error) {
	return enumerateKey(key)
}

// DiskSnapshots lists the snapshot files under the store directory,
// sorted by name; empty for memory-only stores.
func (s *Store) DiskSnapshots() []string {
	if s.dir == "" {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "systems", "*.eba"))
	if err != nil {
		return nil
	}
	for i, m := range matches {
		matches[i] = filepath.Base(m)
	}
	sort.Strings(matches)
	return matches
}
