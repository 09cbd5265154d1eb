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
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
)

// Telemetry handles: system requests, labelled by where each was
// satisfied.
var (
	mSysMem    = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "memory"))
	mSysDisk   = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "disk"))
	mSysEnum   = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "enumerated"))
	mSysShared = telemetry.Default().Counter("eba_store_system_requests_total", telemetry.L("result", "shared"))
)

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
	// SystemDecodes counts snapshot decodes, failed ones included: one
	// at each restore that cannot be admitted from what the store
	// remembers of the key's snapshot, and one at the first use of each
	// entry that was.
	SystemDecodes    uint64 `json:"system_decodes"`
	Enumerations     uint64 `json:"enumerations"`
	SharedLoads      uint64 `json:"shared_loads"`
	ResultMemoryHits uint64 `json:"result_memory_hits"`
	ResultDiskHits   uint64 `json:"result_disk_hits"`
	ResultComputes   uint64 `json:"result_computes"`
	Evictions        uint64 `json:"evictions"`
	DiskErrors       uint64 `json:"disk_errors"`
	Quarantined      uint64 `json:"quarantined"`
}

// Answer is the verdict of a formula over a system, as the memo and a
// result file hold it: how many points satisfy the formula and the
// first point that does not, with that point's run. It is derived once
// from the truth table a compute returns, and the table is then let go.
// An Answer is shared and must not be modified.
type Answer struct {
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
	a := &Answer{True: tbl.Count(), First: tbl.FirstZero()}
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

// Shape is the size of a system, known without its run table.
type Shape struct {
	Runs, Points, Views int
}

func shapeOf(sys *system.System) Shape {
	return Shape{Runs: sys.NumRuns(), Points: sys.NumPoints(), Views: sys.Interner.Size()}
}

// known is what a store remembers of a key's snapshot once it has
// decoded it in full or encoded it itself: its content digest, its size
// in bytes and the shape of its system.
type known struct {
	digest string
	size   int
	shape  Shape
}

// entry is one resident system plus its memoized answers, which live
// and die with it. An entry restored from a snapshot the store knows
// holds neither the snapshot's bytes nor a system until the first call
// of Store.system reads, verifies and decodes the file.
type entry struct {
	key     Key
	shape   Shape
	digest  string // content address; "" when the store is memory-only
	size    int    // encoded snapshot size in bytes
	results map[string]*Answer
	elem    *list.Element
	loaded  time.Time
	origin  Origin

	// decode runs the one read and decode of an entry admitted
	// undecoded; an entry admitted decoded has sys set from the start.
	// When the file fails that decode, sys is a fresh enumeration, and
	// memOnly is set unless that system encodes to digest: results over
	// it are then not filed under digest. Only a file that decoded in
	// full before, yet is not this build's encoding of its key, can set
	// it: a valid snapshot of another system under the key's name.
	decode  sync.Once
	sys     *system.System
	memOnly bool
	err     error
}

// flight is one in-progress system load or answer computation;
// later requests for the same one wait on done instead of repeating
// it.
type flight struct {
	done chan struct{}
	e    *entry
	ans  *Answer
	err  error
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
	// known holds, for every key whose snapshot this store has decoded
	// in full or encoded, what it remembers of that snapshot. It is
	// never pruned: one small row per key.
	known map[Key]known

	// enumerate builds a system on a full miss; tests replace it
	// through SetEnumerator.
	enumerate func(Key) (*system.System, error)

	// quarantineHook, when set, observes every successful quarantine
	// move with the destination path. The flight recorder uses it to
	// dump the trace ring when corruption surfaces.
	quarantineHook func(path string)
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
		known:     make(map[Key]known),
	}
	s.enumerate = enumerateKey
	s.recoverScan()
	return s, nil
}

// SetEnumerator replaces the cold-path system builder (nil restores
// the default): a test hook for counting, slowing or failing builds.
// Call before serving traffic.
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
	s.scanDir(filepath.Join(s.dir, "systems"), snapExt, VerifySnapshot)
	resRoot := filepath.Join(s.dir, "results")
	subs, err := s.fsys.ReadDir(resRoot)
	if err != nil {
		return
	}
	for _, sub := range subs {
		if sub.IsDir() {
			s.scanDir(filepath.Join(resRoot, sub.Name()), resultExt, VerifyResult)
		} else if strings.HasPrefix(sub.Name(), ".tmp-") {
			s.quarantine(filepath.Join(resRoot, sub.Name()))
		}
	}
}

// scanDir verifies the files in dir whose names end in ext and
// quarantines the ones that fail. A file named for another version
// belongs to the build that wrote it and is not read.
func (s *Store) scanDir(dir, ext string, verify func([]byte) error) {
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
		if !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			continue // unreadable now ≠ corrupt; the read path retries
		}
		if verify(data) != nil {
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

// snapExt and resultExt end the names of the snapshot and result files
// this build reads and writes. The envelope version is in the name, so
// builds that share a cache directory each keep their own file for a
// key or a formula.
var (
	snapExt   = ".v" + strconv.Itoa(snapVersion) + ".eba"
	resultExt = ".v" + strconv.Itoa(resultVersion) + ".bits"
)

// systemPath is the snapshot file for a key.
func (s *Store) systemPath(key Key) string {
	return filepath.Join(s.dir, "systems", key.Slug()+snapExt)
}

// resultPath is the result file for a formula over the system with
// the given content digest.
func (s *Store) resultPath(digest, formula string) string {
	fsum := sha256.Sum256([]byte(formula))
	return filepath.Join(s.dir, "results", digest[:16], hex.EncodeToString(fsum[:12])+resultExt)
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
	e, origin, err := s.acquire(ctx, key)
	if err != nil {
		return nil, origin, err
	}
	sys, enumerated, err := s.system(ctx, e)
	if enumerated {
		origin = OriginEnumerated
	}
	return sys, origin, err
}

// Resident makes the key's system resident, as SystemCtx does, and
// returns its shape. A restore of a snapshot the store knows reads
// nothing: it checks the file's size, and the first compute over the
// entry reads, verifies and decodes the file.
func (s *Store) Resident(ctx context.Context, key Key) (Shape, Origin, error) {
	e, origin, err := s.acquire(ctx, key)
	if err != nil {
		return Shape{}, origin, err
	}
	return e.shape, origin, nil
}

// acquire returns the key's entry from memory, or admits one from disk
// or a fresh enumeration. Concurrent misses on one key share one load.
func (s *Store) acquire(ctx context.Context, key Key) (*entry, Origin, error) {
	if err := key.Validate(); err != nil {
		return nil, OriginEnumerated, err
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		s.stats.SystemMemoryHits++
		s.mu.Unlock()
		mSysMem.Inc()
		return e, OriginMemory, nil
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
		return f.e, OriginShared, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	e, err := s.load(ctx, key)

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil {
		s.admit(e)
	}
	f.e, f.err = e, err
	close(f.done)
	s.mu.Unlock()
	if err != nil {
		return nil, OriginEnumerated, err
	}
	return e, e.origin, nil
}

// system returns the entry's system. On the first call, an entry
// admitted undecoded reads its snapshot and decodes it, which verifies
// the checksum and every run, and requires the file to be the key's
// and to carry the entry's digest. A file that fails is quarantined
// and the key is re-enumerated and rewritten, as at a failed restore.
// enumerated reports that this call did so. Concurrent first calls
// share the one decode.
func (s *Store) system(ctx context.Context, e *entry) (*system.System, bool, error) {
	enumerated := false
	e.decode.Do(func() {
		if e.sys != nil {
			return
		}
		if _, sys := s.decodeFile(ctx, e.key, e.digest); sys != nil {
			e.sys = sys
			return
		}
		enumerated = true
		fresh, err := s.enumerateEntry(ctx, e.key)
		if err != nil {
			// Drop the broken entry so that the next request loads the
			// key afresh.
			e.err = err
			s.mu.Lock()
			if s.entries[e.key] == e {
				s.lru.Remove(e.elem)
				delete(s.entries, e.key)
			}
			s.mu.Unlock()
			return
		}
		e.sys, e.memOnly = fresh.sys, fresh.digest != e.digest
	})
	return e.sys, enumerated, e.err
}

// load misses memory: try the disk snapshot, then enumerate and
// persist. Called without the lock held.
func (s *Store) load(ctx context.Context, key Key) (*entry, error) {
	if s.dir != "" {
		if e := s.restore(ctx, key); e != nil {
			return e, nil
		}
	}
	return s.enumerateEntry(ctx, key)
}

// enumerateEntry builds key's system afresh. A persistent store also
// encodes the system, learns the snapshot and writes it. Called
// without the lock held.
func (s *Store) enumerateEntry(ctx context.Context, key Key) (*entry, error) {
	_, enumSp := telemetry.StartSpan(ctx, "store.enumerate", telemetry.L("key", key.Slug()))
	sys, err := s.enumerate(key)
	enumSp.End()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.Enumerations++
	s.mu.Unlock()
	mSysEnum.Inc()

	e := &entry{key: key, shape: shapeOf(sys), sys: sys, origin: OriginEnumerated}
	if s.dir != "" {
		data, err := EncodeSystem(key, sys)
		if err != nil {
			return nil, err
		}
		e.digest, e.size = Digest(data), len(data)
		s.learn(e)
		if err := s.fsys.WriteAtomic(s.systemPath(key), data); err != nil {
			// Persistence failure degrades to memory-only for this
			// system; the answer itself is still good.
			s.noteDiskError()
		}
	}
	return e, nil
}

// restore admits key's snapshot file, returning nil when there is none
// to serve. When the store knows key's snapshot and the file still has
// its size, the entry is admitted from what the store remembers,
// reading none of the file: its first compute reads, verifies and
// decodes it (Store.system). Any other file is read and decoded in
// full now.
func (s *Store) restore(ctx context.Context, key Key) (e *entry) {
	s.mu.Lock()
	k, ok := s.known[key]
	s.mu.Unlock()
	if ok {
		if fi, err := s.fsys.Stat(s.systemPath(key)); err == nil && fi.Size() == int64(k.size) {
			e = &entry{key: key, shape: k.shape, digest: k.digest, size: k.size, origin: OriginDisk}
		}
	}
	if e == nil {
		data, sys := s.decodeFile(ctx, key, "")
		if sys == nil {
			return nil
		}
		e = &entry{key: key, shape: shapeOf(sys), digest: Digest(data), size: len(data), sys: sys, origin: OriginDisk}
		s.learn(e)
	}
	s.mu.Lock()
	s.stats.SystemDiskHits++
	s.mu.Unlock()
	mSysDisk.Inc()
	return e
}

// decodeFile reads and decodes key's snapshot file. A nil system means
// there is none to serve: the file is unreadable, or it is corrupt,
// another key's or, when want is not "", not of digest want, and is
// then quarantined.
func (s *Store) decodeFile(ctx context.Context, key Key, want string) ([]byte, *system.System) {
	path := s.systemPath(key)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	_, sp := telemetry.StartSpan(ctx, "store.decode", telemetry.L("key", key.Slug()))
	gotKey, sys, derr := DecodeSystem(data)
	sp.End()
	s.noteDecode()
	if derr != nil || gotKey != key || want != "" && Digest(data) != want && mutant != "lazydigest" {
		// A corrupt snapshot is not fatal: quarantine the evidence and
		// fall through to enumeration, which rewrites a fresh one.
		// Surface the event in stats and telemetry.
		s.noteDiskError()
		s.quarantine(path)
		return nil, nil
	}
	return data, sys
}

// learn files the entry's snapshot digest as known.
func (s *Store) learn(e *entry) {
	s.mu.Lock()
	s.known[e.key] = known{digest: e.digest, size: e.size, shape: e.shape}
	s.mu.Unlock()
}

func (s *Store) noteDecode() {
	s.mu.Lock()
	s.stats.SystemDecodes++
	s.mu.Unlock()
}

func (s *Store) noteDiskError() {
	s.mu.Lock()
	s.stats.DiskErrors++
	s.mu.Unlock()
}

// admit inserts a loaded entry into the memory layer, evicting from
// the LRU tail past maxMem. Caller holds the lock.
func (s *Store) admit(e *entry) {
	if old, ok := s.entries[e.key]; ok {
		s.lru.MoveToFront(old.elem)
		return
	}
	e.results = make(map[string]*Answer)
	e.loaded = time.Now()
	e.elem = s.lru.PushFront(e)
	s.entries[e.key] = e
	for s.lru.Len() > s.maxMem {
		tail := s.lru.Back()
		old := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.entries, old.key)
		s.stats.Evictions++
	}
}

// Result is AnswerCtx with no trace context.
func (s *Store) Result(key Key, formula string, compute func(*system.System) (*knowledge.Bits, error)) (*Answer, Origin, error) {
	return s.AnswerCtx(context.Background(), key, formula, compute)
}

// AnswerCtx returns the answer of formula over the key's system, from
// the entry's memo, the disk layer, or compute, in that order. compute
// returns the formula's truth table, from which the answer is derived
// once; it runs at most once per (key, formula) at a time, and
// concurrent duplicates wait and share its answer. ctx carries the
// request's trace: singleflight waits, a first decode and the compute
// itself become child spans. A memory hit is one map lookup; a disk
// hit needs no decoded system.
func (s *Store) AnswerCtx(ctx context.Context, key Key, formula string, compute func(*system.System) (*knowledge.Bits, error)) (*Answer, Origin, error) {
	e, _, err := s.acquire(ctx, key)
	if err != nil {
		return nil, OriginEnumerated, err
	}
	rk := resultFlightKey{key: key, formula: formula}
	s.mu.Lock()
	if cur, ok := s.entries[key]; ok {
		if ans, ok := cur.results[formula]; ok {
			s.stats.ResultMemoryHits++
			s.mu.Unlock()
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
	s.mu.Unlock()

	ans, origin, err := s.loadResult(ctx, e, formula, compute)

	s.mu.Lock()
	delete(s.resFlight, rk)
	if err == nil {
		if cur, ok := s.entries[key]; ok {
			cur.results[formula] = ans
		}
	}
	f.ans, f.err = ans, err
	close(f.done)
	s.mu.Unlock()
	return ans, origin, err
}

// loadResult misses the memo: try the disk layer, then compute over
// the entry's system and persist. Called without the lock held.
func (s *Store) loadResult(ctx context.Context, e *entry, formula string, compute func(*system.System) (*knowledge.Bits, error)) (*Answer, Origin, error) {
	persistable := s.dir != "" && e.digest != ""
	if persistable {
		path := s.resultPath(e.digest, formula)
		if data, err := s.fsys.ReadFile(path); err == nil {
			got, ans, derr := DecodeResult(data)
			if derr == nil && got == formula {
				if ans := e.fileAnswer(ans); ans != nil {
					s.mu.Lock()
					s.stats.ResultDiskHits++
					s.mu.Unlock()
					return ans, OriginDisk, nil
				}
			}
			s.noteDiskError()
			s.quarantine(path)
		}
	}
	sys, _, err := s.system(ctx, e)
	if err != nil {
		return nil, OriginEnumerated, err
	}
	persistable = persistable && !e.memOnly
	_, sp := telemetry.StartSpan(ctx, "store.compute")
	tbl, err := compute(sys)
	sp.End()
	if err != nil {
		return nil, OriginEnumerated, err
	}
	s.mu.Lock()
	s.stats.ResultComputes++
	s.mu.Unlock()
	ans := newAnswer(sys, tbl)
	if persistable {
		file := ans
		if mutant == "firstoff" {
			file = &Answer{True: ans.True, First: ans.First + 1, Witness: ans.Witness}
		}
		if w := ans.Witness; mutant == "witnessrun" && w != nil {
			next := sys.Run((w.Run + 1) % sys.NumRuns())
			file = &Answer{True: ans.True, First: ans.First, Witness: &Witness{Config: next.Config().String(), Pattern: w.Pattern}}
		}
		if err := s.fsys.WriteAtomic(s.resultPath(e.digest, formula), EncodeResult(formula, file)); err != nil {
			s.noteDiskError()
		}
	}
	return ans, OriginEnumerated, nil
}

// fileAnswer completes the answer a result file holds for the entry's
// system, or returns nil when it does not fit that system: unless
// True ≤ Points and First < Points, First < 0 exactly when True ==
// Points, and the witness text is present exactly when First ≥ 0. The
// falsifying point's run and time follow from its index, as in
// system.PointAt.
func (e *entry) fileAnswer(a *Answer) *Answer {
	points, valid := e.shape.Points, a.First < 0
	if a.True > points || a.First >= points || valid != (a.True == points) {
		return nil
	}
	if w := a.Witness; valid != (w == nil) || w != nil && (w.Config == "" || w.Pattern == "") {
		return nil
	}
	if !valid {
		times := e.key.Horizon + 1
		a.Witness.Run, a.Witness.Time = a.First/times, a.First%times
	}
	return a
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
			Runs:      e.shape.Runs,
			Points:    e.shape.Points,
			Views:     e.shape.Views,
			SizeBytes: e.size,
			Results:   len(e.results),
			Origin:    e.origin.String(),
			LoadedAt:  e.loaded.UTC().Format(time.RFC3339),
		})
	}
	return out
}

// DiskSnapshots lists the snapshot files under the store directory,
// sorted by name; empty for memory-only stores.
func (s *Store) DiskSnapshots() []string {
	if s.dir == "" {
		return nil
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "systems", "*"+snapExt))
	if err != nil {
		return nil
	}
	for i, m := range matches {
		matches[i] = filepath.Base(m)
	}
	sort.Strings(matches)
	return matches
}
