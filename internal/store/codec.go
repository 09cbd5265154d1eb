// Package store is the persistence layer under the epistemic query
// service: a versioned, content-addressed snapshot store for
// enumerated full-information systems and the memoized answers of
// formulas over them, keyed by (n, t, mode, horizon, limit).
//
// Enumerating a system is the expensive artifact every tool in the
// repository needs — ebaq, ebacheck, ebaexp, and the ebad daemon all
// start from the same ℛ — so the store amortizes it: a deterministic
// binary codec snapshots the interner, the key's failure patterns and
// every run's view table to disk under a SHA-256 trailer, and holds a
// snapshot to its key's enumeration, so truncated, corrupted or
// foreign files are rejected, never half-loaded; an LRU-bounded
// in-memory layer sits above the disk layer; and a singleflight gate
// dedups concurrent requests so N simultaneous queries for one system
// trigger exactly one enumeration.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/varint"
	"github.com/eventual-agreement/eba/internal/views"
)

// Key identifies one enumerated system: the exhaustive adversary for
// (n, t, mode) over a horizon, with Limit bounding the pattern count
// (0 = unlimited). An enumeration is the whole class or an error, so
// the limit changes no system, only whether the key is refused; it is
// still part of the key, its file name and its snapshot, which is why
// the service files every request of a mode under one limit.
type Key struct {
	N       int           `json:"n"`
	T       int           `json:"t"`
	Mode    failures.Mode `json:"-"`
	Horizon int           `json:"horizon"`
	Limit   int           `json:"limit,omitempty"`
}

// Validate checks the key describes an enumerable system.
func (k Key) Validate() error {
	if err := (types.Params{N: k.N, T: k.T}).Validate(); err != nil {
		return err
	}
	if !k.Mode.Valid() {
		return fmt.Errorf("store: %w %v", failures.ErrUnknownMode, k.Mode)
	}
	if k.Horizon < 1 {
		return fmt.Errorf("store: horizon %d < 1", k.Horizon)
	}
	if k.Limit < 0 {
		return fmt.Errorf("store: negative limit %d", k.Limit)
	}
	return nil
}

// Slug is the key's filesystem-safe rendering, used for snapshot file
// names and inventory listings.
func (k Key) Slug() string {
	b := make([]byte, 0, 48)
	b = append(b, k.Mode.String()...)
	b = append(b, "-n"...)
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, "-t"...)
	b = strconv.AppendInt(b, int64(k.T), 10)
	b = append(b, "-h"...)
	b = strconv.AppendInt(b, int64(k.Horizon), 10)
	if k.Limit > 0 {
		b = append(b, "-l"...)
		b = strconv.AppendInt(b, int64(k.Limit), 10)
	}
	return string(b)
}

// String renders the key for logs and errors.
func (k Key) String() string { return k.Slug() }

// Snapshot file format. A snapshot is
//
//	magic ∥ uvarint(version) ∥ key ∥ interner ∥ patterns ∥ runs ∥ sha256
//
// where the trailing SHA-256 covers every preceding byte. The digest
// doubles as the snapshot's content address: two files with equal
// digests decode to identical systems, and memoized answers are filed
// under the digest of the system they were computed over.
const (
	snapMagic     = "EBASNAP"
	bitsMagic     = "EBABITS"
	snapVersion   = 1
	resultVersion = 3
	digestLen     = sha256.Size
)

// EncodeSystem serializes the system under its key. The encoding is
// deterministic: enumeration order and interner IDs are reproducible,
// so equal keys yield byte-identical snapshots (the golden-digest
// tests pin this). Only the system the key enumerates decodes.
func EncodeSystem(key Key, sys *system.System) ([]byte, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	if sys.Params.N != key.N || sys.Params.T != key.T || sys.Mode != key.Mode || sys.Horizon != key.Horizon {
		return nil, fmt.Errorf("store: system is %s-n%d-t%d-h%d, key is %s",
			sys.Mode, sys.Params.N, sys.Params.T, sys.Horizon, key)
	}
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, snapVersion)
	buf = binary.AppendUvarint(buf, uint64(key.N))
	buf = binary.AppendUvarint(buf, uint64(key.T))
	buf = binary.AppendUvarint(buf, uint64(key.Mode))
	buf = binary.AppendUvarint(buf, uint64(key.Horizon))
	buf = binary.AppendUvarint(buf, uint64(key.Limit))

	inBlob := views.MarshalInterner(sys.Interner)
	buf = binary.AppendUvarint(buf, uint64(len(inBlob)))
	buf = append(buf, inBlob...)

	tbl := sys.Table()
	buf = appendPatterns(buf, key, tbl.Patterns)
	stride := (key.Horizon + 1) * key.N
	buf = binary.AppendUvarint(buf, uint64(len(tbl.PatternOf)))
	for r, pi := range tbl.PatternOf {
		buf = binary.AppendUvarint(buf, tbl.ConfigOf[r])
		buf = binary.AppendUvarint(buf, uint64(pi))
		for _, id := range tbl.Views[r*stride : (r+1)*stride] {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}

	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// appendPatterns appends the pattern section, the one writer of its
// format: the count, then per pattern its faulty set and, per faulty
// processor in increasing order, its sending-omission sets of rounds
// 1..h and, in the modes with receiving faults only (so sending-mode
// snapshots kept their layout), its receiving-omission sets.
func appendPatterns(buf []byte, key Key, pats []*failures.Pattern) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pats)))
	for _, pat := range pats {
		buf = binary.AppendUvarint(buf, uint64(pat.Faulty()))
		for rest := uint64(pat.Faulty()); rest != 0; rest &= rest - 1 {
			p := types.ProcID(bits.TrailingZeros64(rest))
			for r := 1; r <= key.Horizon; r++ {
				buf = binary.AppendUvarint(buf, uint64(pat.OmittedBy(p, types.Round(r))))
			}
			if key.Mode.HasReceivingFaults() {
				for r := 1; r <= key.Horizon; r++ {
					buf = binary.AppendUvarint(buf, uint64(pat.RecvOmittedBy(p, types.Round(r))))
				}
			}
		}
	}
	return buf
}

// Digest returns the hex content address of an encoded snapshot (its
// SHA-256 trailer).
func Digest(data []byte) string {
	if len(data) < digestLen {
		return ""
	}
	return hex.EncodeToString(data[len(data)-digestLen:])
}

// DecodeSystem decodes a snapshot produced by EncodeSystem, verifying
// the magic, the version, the checksum, that it holds its key's
// enumeration and every rule a restored run table must keep
// (system.Restorer). It reads, verifies and adopts, and derives
// nothing but the interner's per-view known-value masks:
// the interner's hash-cons table and memo tables, the
// nonfaulty-holder count and the pattern keys are each built by the
// first call that needs them.
//
// A snapshot of spreadMin bytes or more is decoded on several
// goroutines. The checksum is computed on its own while the rest
// decodes; nothing decoded is returned until it verifies, and a
// mismatch outranks every decode error. The interner is decoded on
// another while the key's patterns are enumerated and compared with
// the file's and the run arrays allocated, and the run table is
// decoded in two lanes, each checking every run right after decoding
// it. Errors are those of a sequential decode: the first bad section,
// and within the run table the first bad run. Because the decode runs
// before the checksum has verified, every allocation it makes is
// bounded by the payload's length.
func DecodeSystem(data []byte) (Key, *system.System, error) {
	return decodeSystem(data, -1)
}

// decodeSystem is DecodeSystem with the run table's second lane
// starting at run split, or at half the runs when split is negative.
// A split of 0 or past the last run leaves one lane.
func decodeSystem(data []byte, split int) (Key, *system.System, error) {
	if len(data) < len(snapMagic)+1+digestLen {
		return Key{}, nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return Key{}, nil, fmt.Errorf("store: bad magic %q", data[:len(snapMagic)])
	}
	payload, trailer := data[:len(data)-digestLen], data[len(data)-digestLen:]
	checksum := func() bool {
		sum := sha256.Sum256(payload)
		return bytes.Equal(sum[:], trailer)
	}
	if len(data) < spreadMin {
		if !checksum() {
			return Key{}, nil, errChecksum
		}
		return decodePayload(payload[len(snapMagic):], split, false)
	}
	sumOK := make(chan bool, 1)
	go func() { sumOK <- checksum() }()
	key, sys, err := decodePayload(payload[len(snapMagic):], split, true)
	if !<-sumOK {
		return Key{}, nil, errChecksum
	}
	if err != nil {
		return key, nil, err
	}
	return key, sys, nil
}

var errChecksum = errors.New("store: checksum mismatch (truncated or corrupted snapshot)")

// spreadMin is the smallest snapshot whose decode is spread over
// goroutines. A smaller one decodes in well under a millisecond, on
// the caller's goroutine and after its checksum has verified, which
// also keeps the fuzzer's small inputs fast and their paths through
// the decoder deterministic.
const spreadMin = 64 << 10

// start runs f on a goroutine of its own when spread is set, and at
// once otherwise.
func start(spread bool, f func()) {
	if spread {
		go f()
	} else {
		f()
	}
}

// decodePayload decodes everything between the magic and the checksum,
// on several goroutines when spread is set.
func decodePayload(body []byte, split int, spread bool) (Key, *system.System, error) {
	var key Key
	d := decoder{buf: body}
	if v := d.uvarint(); v != snapVersion {
		return key, nil, versionError("snapshot", v, snapVersion)
	}
	key.N = int(d.uvarint())
	key.T = int(d.uvarint())
	key.Mode = failures.Mode(d.uvarint())
	key.Horizon = int(d.uvarint())
	key.Limit = int(d.uvarint())
	if d.err == nil {
		d.err = key.Validate()
	}
	if d.err != nil {
		return key, nil, d.err
	}

	// The interner's blob is length-prefixed, so it is decoded beside
	// the rest; UnmarshalInterner bounds what it allocates by the blob.
	blob := d.bytes(int(d.uvarint()))
	if d.err != nil {
		return key, nil, d.err
	}
	type interned struct {
		in  *views.Interner
		err error
	}
	inDone := make(chan interned, 1)
	start(spread, func() {
		in, err := views.UnmarshalInterner(blob)
		inDone <- interned{in, err}
	})
	pats, tbl, err := decodeTableHead(&d, key)
	// The interner comes first in the snapshot, so its error does too.
	got := <-inDone
	if got.err != nil {
		return key, nil, got.err
	}
	if err != nil {
		return key, nil, err
	}
	rs, err := system.NewRestorer(types.Params{N: key.N, T: key.T}, key.Mode, key.Horizon, got.in, pats)
	if err != nil {
		return key, nil, err
	}

	nruns := len(tbl.PatternOf)
	if split < 0 {
		split = nruns / lanes
	}
	// Lane 1 decodes runs [0, split) from d.pos up to the byte where
	// run split starts, lane 2 the rest. When the payload holds too few
	// varints for the split, lane 1 takes every run and reports where
	// the table is cut short.
	at := -1
	if split > 0 && split < nruns {
		at = varintEnd(d.buf, d.pos, split*(2+rs.Stride()))
	}
	if at < 0 {
		split, at = nruns, len(d.buf)
	}
	var err2 error
	var wg sync.WaitGroup
	if split < nruns {
		wg.Add(1)
		start(spread, func() {
			defer wg.Done()
			err2 = decodeRuns(&decoder{buf: d.buf, pos: at}, rs, &tbl, split, nruns)
		})
	}
	err1 := decodeRuns(&decoder{buf: d.buf[:at], pos: d.pos}, rs, &tbl, 0, split)
	wg.Wait()
	if err1 != nil {
		return key, nil, err1
	}
	if err2 != nil {
		return key, nil, err2
	}
	sys, err := rs.Adopt(tbl)
	if err != nil {
		return key, nil, err
	}
	return key, sys, nil
}

// lanes is how many goroutines decode a snapshot's run table.
const lanes = 2

// decodeTableHead checks the pattern section and the run count against
// the key's enumeration and allocates the run table. Nothing is parsed:
// once the horizon and the enumeration's size are held to the payload
// (a faulty set, a schedule set and a view are each at least a byte),
// the key is enumerated and the section must be appendPatterns of it.
func decodeTableHead(d *decoder, key Key) ([]*failures.Pattern, system.RunTable, error) {
	count, size, err := failures.Count(key.Mode, key.N, key.T, key.Horizon, key.Limit)
	if err != nil {
		return nil, system.RunTable{}, fmt.Errorf("store: snapshot %w", err)
	}
	if mutant == "enumcheck" {
		if c, k := binary.Uvarint(d.buf[d.pos:]); k > 0 && c < uint64(count) {
			count = int(c) // planted: trust the file's pattern count where lower
		}
	}
	stride := (key.Horizon + 1) * key.N // no overflow once the horizon is held
	if rest := d.rest(); key.Horizon >= rest/key.N || count > rest || size > rest-count || count > rest/stride>>key.N {
		return nil, system.RunTable{}, fmt.Errorf("store: snapshot of %s has %d bytes left for %d patterns of %d sets and %d runs of %d views",
			key, rest, count, size, count<<key.N, stride)
	}
	pats, err := failures.Enum(key.Mode, key.N, key.T, key.Horizon, key.Limit)
	if err != nil {
		return nil, system.RunTable{}, fmt.Errorf("store: snapshot %w", err)
	}
	pats = pats[:count] // all of them but under the planted enumcheck
	// A set is a varint of at most ⌈n/7⌉ bytes.
	want := appendPatterns(make([]byte, 0, binary.MaxVarintLen64+(count+size)*((key.N+6)/7)), key, pats)
	if got := d.bytes(len(want)); d.err == nil && !bytes.Equal(got, want) {
		d.err = fmt.Errorf("store: snapshot's pattern section is not the enumeration of %s", key)
	}
	if got := d.uvarint(); d.err == nil && got != uint64(len(pats))<<key.N {
		d.err = fmt.Errorf("store: snapshot holds %d runs, the enumeration of %s %d", got, key, len(pats)<<key.N)
	}
	if d.err != nil {
		return nil, system.RunTable{}, d.err
	}
	return pats, system.NewRunTable(key.N, key.Horizon, pats), nil
}

// decodeRuns decodes runs [lo, hi) of the table from d and checks each
// one while its views are still in cache: its head must be the one
// system.NewRunTable gave it, and its views must pass
// system.Restorer.CheckRun. It reports the first bad run; the lane
// that ends the table also reports trailing bytes.
func decodeRuns(d *decoder, rs *system.Restorer, tbl *system.RunTable, lo, hi int) error {
	stride := rs.Stride()
	var head [2]uint64 // configuration bits, pattern index
	for r := lo; r < hi; r++ {
		run := tbl.Views[r*stride : (r+1)*stride]
		uvarints(d, head[:])
		uvarints(d, run)
		if d.err != nil {
			return d.err
		}
		cfg, pi := tbl.ConfigOf[r], tbl.PatternOf[r]
		if (head[0] != cfg || head[1] != uint64(pi)) && mutant != "enumcheck" {
			return fmt.Errorf("store: run %d is headed (config %#x, pattern %d), where the enumeration has (config %#x, pattern %d)",
				r, head[0], head[1], cfg, pi)
		}
		if !(mutant == "lane2nocheck" && lo > 0) {
			if err := rs.CheckRun(r, int64(pi), cfg, run); err != nil {
				return err
			}
		}
	}
	if hi == len(tbl.PatternOf) && d.rest() != 0 {
		return fmt.Errorf("store: %d trailing bytes after snapshot", d.rest())
	}
	return nil
}

// varintEnd returns the position in buf just past the k varints that
// start at pos, or -1 if buf holds fewer. A varint ends at each byte
// below 0x80, so it counts those bytes, a word at a time.
func varintEnd(buf []byte, pos, k int) int {
	for len(buf)-pos >= 8 {
		w := binary.LittleEndian.Uint64(buf[pos:])
		ends := 8 - bits.OnesCount64(w&0x8080808080808080)
		if ends >= k {
			break
		}
		k -= ends
		pos += 8
	}
	for ; pos < len(buf); pos++ {
		if buf[pos] < 0x80 {
			if k--; k == 0 {
				return pos + 1
			}
		}
	}
	return -1
}

// EncodeResult serializes the answer for one formula,
//
//	magic ∥ uvarint(version) ∥ formula ∥ uvarint(True) ∥ uvarint(First+1) ∥ config ∥ pattern ∥ sha256
//
// formula, config and pattern each length-prefixed, in the same
// checksummed envelope as system snapshots. Config and pattern are the
// witness's, empty when the formula is valid; its run and time are not
// written, as they follow from First and the horizon. Results carry a
// version of their own, so changing them moves no snapshot's digest.
func EncodeResult(formula string, a *Answer) []byte {
	var config, pattern string
	if w := a.Witness; w != nil {
		config, pattern = w.Config, w.Pattern
	}
	buf := make([]byte, 0, len(formula)+len(config)+len(pattern)+80)
	buf = append(buf, bitsMagic...)
	buf = binary.AppendUvarint(buf, resultVersion)
	buf = appendString(buf, formula)
	buf = binary.AppendUvarint(buf, uint64(a.True))
	buf = binary.AppendUvarint(buf, uint64(a.First+1))
	buf = appendString(buf, config)
	buf = appendString(buf, pattern)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// DecodeResult decodes a result file written by EncodeResult. The
// answer has a witness when the file holds witness text; its Run and
// Time are left 0 for the reader, who knows the horizon, to fill in.
func DecodeResult(data []byte) (formula string, a *Answer, err error) {
	if err := VerifyResult(data); err != nil {
		return "", nil, err
	}
	d := decoder{buf: data[len(bitsMagic) : len(data)-digestLen]}
	d.uvarint() // the version, checked by VerifyResult
	formula = string(d.bytes(int(d.uvarint())))
	tru, first := d.uvarint(), d.uvarint()
	config := string(d.bytes(int(d.uvarint())))
	pattern := string(d.bytes(int(d.uvarint())))
	if d.err != nil {
		return "", nil, d.err
	}
	if d.rest() != 0 {
		return "", nil, fmt.Errorf("store: %d trailing bytes after result", d.rest())
	}
	if tru > math.MaxInt || first > math.MaxInt {
		return "", nil, fmt.Errorf("store: result counts %d, %d out of range", tru, first)
	}
	a = &Answer{True: int(tru), First: int(first) - 1}
	if config != "" || pattern != "" {
		a.Witness = &Witness{Config: config, Pattern: pattern}
	}
	return formula, a, nil
}

// versionError reports an envelope of another version. A file's name
// carries the version this build reads, so such an envelope under it
// is corrupt, not another build's.
func versionError(kind string, got, want uint64) error {
	return fmt.Errorf("store: %s version %d under this build's name, which is for version %d", kind, got, want)
}

// verifyEnvelope checks the magic ∥ version ∥ ... ∥ sha256 envelope
// shared by snapshots and results without decoding the body. It is the
// boot-time recovery scan's cheap integrity test: a file that fails it
// is partial or corrupt and gets quarantined instead of served.
func verifyEnvelope(kind, magic string, version uint64, data []byte) error {
	if len(data) < len(magic)+1+digestLen {
		return fmt.Errorf("store: %s too short (%d bytes)", kind, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("store: bad %s magic %q", kind, data[:len(magic)])
	}
	payload, trailer := data[:len(data)-digestLen], data[len(data)-digestLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], trailer) {
		return fmt.Errorf("store: %s checksum mismatch (truncated or corrupted)", kind)
	}
	v, k := binary.Uvarint(payload[len(magic):])
	if k <= 0 {
		return fmt.Errorf("store: %s version tag unreadable", kind)
	}
	if v != version {
		return versionError(kind, v, version)
	}
	return nil
}

// VerifySnapshot checks a system snapshot's integrity envelope
// (magic, version, SHA-256 trailer) without decoding it.
func VerifySnapshot(data []byte) error {
	return verifyEnvelope("snapshot", snapMagic, snapVersion, data)
}

// VerifyResult checks a memoized answer's integrity envelope
// without decoding it.
func VerifyResult(data []byte) error {
	return verifyEnvelope("result", bitsMagic, resultVersion, data)
}

// decoder is a cursor over a snapshot payload with sticky errors, so
// decode loops stay linear instead of error-checking every varint.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) uvarint() uint64 {
	var v [1]uint64
	uvarints(d, v[:])
	return v[0]
}

// uvarints fills dst with the next len(dst) varints, narrowed to its
// element type as a conversion would. Nearly all of a snapshot's
// varints are read here, a run at a time: the caller looks at the
// error once per run.
func uvarints[T ~int32 | ~uint64](d *decoder, dst []T) {
	if d.err != nil {
		return
	}
	pos, ok := varint.Fill(d.buf, d.pos, dst)
	if !ok {
		d.err = fmt.Errorf("store: truncated snapshot at byte %d", pos)
		return
	}
	d.pos = pos
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.rest() {
		d.err = fmt.Errorf("store: truncated snapshot at byte %d (want %d more)", d.pos, n)
		return nil
	}
	out := d.buf[d.pos : d.pos+n]
	d.pos += n
	return out
}

func (d *decoder) rest() int { return len(d.buf) - d.pos }
