// Package nettransport runs protocols over real TCP loopback
// connections: one goroutine per processor, a framed stream per
// directed link, deadline-driven rounds, seeded chaos injection, and
// reconstruction of the failure pattern the network induced. Unlike
// the in-process transport it exercises genuine serialization:
// messages must be []byte (the fip.WireProtocol adapter produces
// exactly that).
package nettransport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/chaos"
	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/telemetry"
	"github.com/eventual-agreement/eba/internal/types"
)

// Telemetry handles for the resilient runtime. They mirror the
// failures.Observation bookkeeping from independent call sites: the
// required−delivered difference must equal the reconstructed pattern's
// omission count, which the e2e telemetry test asserts.
var (
	mNetRequired  = telemetry.Default().Counter("eba_net_messages_required_total")
	mNetDelivered = telemetry.Default().Counter("eba_net_messages_delivered_total")
)

// Default timing parameters for the resilient engine.
const (
	// DefaultDeadline is the per-round receive deadline: how long a
	// processor waits for a peer's round-r frame before treating the
	// message as omitted.
	DefaultDeadline = 750 * time.Millisecond
	// DefaultBackoffBase is the initial reconnect backoff.
	DefaultBackoffBase = 2 * time.Millisecond
	// DefaultBackoffMax caps the exponential reconnect backoff.
	DefaultBackoffMax = 250 * time.Millisecond
)

// Options configures RunResilient.
type Options struct {
	// Mode is the failure mode the run is attributed to. Defaults to
	// the plan's mode when a chaos plan is set.
	Mode failures.Mode
	// Horizon is the number of rounds to run. Defaults to the plan's
	// horizon when a chaos plan is set.
	Horizon int
	// Deadline is the per-round receive deadline (DefaultDeadline if
	// zero). A frame that misses it is an omission by its sender —
	// the deployed-system reading of the paper's round clock.
	Deadline time.Duration
	// Plan injects seeded network faults; nil runs chaos-free (any
	// genuine network pathology still degrades to omissions).
	Plan *chaos.Plan
	// BackoffBase and BackoffMax shape the reconnect backoff
	// (exponential with jitter) used when a connection dies in
	// omission mode.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Observation, when non-nil, is the sink for message fates; the
	// engine allocates one internally otherwise. The reconstructed
	// pattern is attached to the returned trace either way.
	Observation *failures.Observation
}

// ReconstructionError reports that a finished run could not be
// attributed to a legal failure pattern of its mode within the fault
// bound — the network's behaviour left the paper's failure model
// (e.g. a processor resumed delivering after an omission in crash
// mode, or more than t processors lost messages).
type ReconstructionError struct{ Err error }

func (e *ReconstructionError) Error() string {
	return "nettransport: run not attributable to a legal pattern: " + e.Err.Error()
}

func (e *ReconstructionError) Unwrap() error { return e.Err }

// RunResilient executes the protocol over a TCP mesh with
// deadline-driven round synchronization: every processor waits at
// most opts.Deadline per round for its peers' frames, and a frame that
// misses the deadline — whether
// dropped, delayed, stuck behind a dead connection, or cut off by a
// partition — is treated as an omission by its sender, exactly the
// paper's failure semantics. Connections that die are re-established
// with exponential backoff and jitter (omission mode), so a killed
// connection degrades to omissions rather than aborting the run; in
// crash mode a closed connection is taken as permanent, matching the
// irrevocability of crashes.
//
// The engine records which required messages were actually delivered,
// reconstructs the effective failure pattern the network induced, and
// returns it as the trace's Pattern. VerifyReconstruction replays that
// pattern on the deterministic engine and checks trace equivalence,
// turning any chaos run into a machine-checked theorem. Message
// values produced by the protocol must be []byte.
func RunResilient(p sim.Protocol, params types.Params, cfg types.Config, opts Options) (*sim.Trace, error) {
	plan := opts.Plan
	mode, h := opts.Mode, opts.Horizon
	if plan != nil {
		if mode == 0 {
			mode = plan.Mode
		} else if mode != plan.Mode {
			return nil, fmt.Errorf("nettransport: options mode %v != plan mode %v", mode, plan.Mode)
		}
		if h == 0 {
			h = plan.H
		} else if h != plan.H {
			return nil, fmt.Errorf("nettransport: options horizon %d != plan horizon %d", h, plan.H)
		}
		if plan.N != params.N {
			return nil, fmt.Errorf("nettransport: plan is for n=%d, params n=%d", plan.N, params.N)
		}
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cfg.N() != params.N {
		return nil, fmt.Errorf("nettransport: config n=%d, params n=%d", cfg.N(), params.N)
	}
	if !mode.Valid() {
		return nil, fmt.Errorf("nettransport: options need a failure mode (or a chaos plan)")
	}
	if h < 1 {
		return nil, fmt.Errorf("nettransport: horizon %d < 1 (set Options.Horizon or a chaos plan)", h)
	}
	deadline := opts.Deadline
	if deadline <= 0 {
		deadline = DefaultDeadline
	}
	backBase, backMax := opts.BackoffBase, opts.BackoffMax
	if backBase <= 0 {
		backBase = DefaultBackoffBase
	}
	if backMax < backBase {
		backMax = DefaultBackoffMax
	}
	obs := opts.Observation
	if obs == nil {
		obs = failures.NewObservation(params.N, h)
	}
	_, sp := telemetry.StartSpan(context.Background(), "net.run_resilient",
		telemetry.L("n", fmt.Sprint(params.N)),
		telemetry.L("mode", mode.String()),
		telemetry.L("horizon", fmt.Sprint(h)))
	defer sp.End()
	var seed int64 = 1
	if plan != nil {
		seed = plan.Seed
	}

	n := params.N
	ctx, cancel := context.WithCancel(context.Background())
	reg := &connReg{conns: make(map[net.Conn]struct{})}
	var netwg sync.WaitGroup // network goroutines: readers, writers, acceptors

	// One listener per processor, open for the whole run so killed
	// connections can be re-established.
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)

	shutdown := func() {
		cancel()
		closeListeners(listeners) // unblocks the accept loops
		reg.closeAll()            // unblocks reads and writes
		netwg.Wait()
	}

	for j := 0; j < n; j++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, fmt.Errorf("nettransport: listen: %w", err)
		}
		listeners[j] = ln
		addrs[j] = ln.Addr().String()
	}

	// Per-processor inboxes and per-directed-link receive channels.
	inCh := make([]chan rframe, n)
	replace := make([][]chan net.Conn, n) // replace[j][i]: new conns for link i→j
	for j := 0; j < n; j++ {
		inCh[j] = make(chan rframe, 2*n*(h+2))
		replace[j] = make([]chan net.Conn, n)
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			replace[j][i] = make(chan net.Conn, 4)
			rl := &recvLink{
				from: types.ProcID(i), to: types.ProcID(j),
				replace: replace[j][i], out: inCh[j],
				mode: mode, ctx: ctx,
			}
			netwg.Add(1)
			go func() { defer netwg.Done(); rl.run() }()
		}
	}

	// The shared round-schedule anchor: round r's frames are due by
	// t0 + r·deadline on every processor. Captured before the accept
	// loops and the dial loop, so both the handshake deadlines and the
	// sender links' delayed-frame aiming share one clock.
	t0 := time.Now()

	// Accept loops: route incoming connections (initial and
	// reconnects) to their link by the handshake byte.
	for j := 0; j < n; j++ {
		j := j
		netwg.Add(1)
		go func() {
			defer netwg.Done()
			for {
				conn, err := listeners[j].Accept()
				if err != nil {
					return // listener closed at shutdown
				}
				reg.add(conn)
				netwg.Add(1)
				go func() {
					defer netwg.Done()
					conn.SetReadDeadline(handshakeDeadline(t0, h, deadline, time.Now()))
					var id [1]byte
					if _, err := io.ReadFull(conn, id[:]); err != nil {
						conn.Close()
						return
					}
					conn.SetReadDeadline(time.Time{})
					i := int(id[0])
					if i < 0 || i >= n || i == j {
						conn.Close()
						return
					}
					select {
					case replace[j][i] <- conn:
					case <-ctx.Done():
						conn.Close()
					}
				}()
			}
		}()
	}

	// Sender links: one serializing writer per directed link, with
	// chaos realization and reconnect-with-backoff.
	sends := make([][]*sendLink, n)
	for i := 0; i < n; i++ {
		sends[i] = make([]*sendLink, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sl := &sendLink{
				from: types.ProcID(i), to: types.ProcID(j),
				addr: addrs[j],
				q:    make(chan outFrame, h+4),
				mode: mode, ctx: ctx, reg: reg,
				base: backBase, max: backMax,
				t0: t0, deadline: deadline,
				rng: rand.New(rand.NewSource(seed ^ int64(i*64+j+1)<<17)),
			}
			conn, err := dialLink(sl.from, addrs[j], reg)
			if err != nil {
				shutdown()
				return nil, err
			}
			sl.conn = conn
			sends[i][j] = sl
			netwg.Add(1)
			go func() { defer netwg.Done(); sl.run() }()
		}
	}

	// Drive the protocol: one goroutine per processor. Round deadlines
	// use the shared schedule anchor — a processor that fills its
	// inbox early and races ahead still leaves its slower peers the
	// full window. Without the shared anchor, one timed-out round
	// shifts a slow processor's sends past a fast processor's next
	// per-round deadline and manufactures omissions out of skew.
	type result struct {
		value   types.Value
		at      types.Round
		decided bool
		err     error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id types.ProcID) {
			defer wg.Done()
			nd := &rnode{
				id: id, n: n, h: types.Round(h),
				t0: t0, deadline: deadline,
				inCh:  inCh[id],
				sends: sends[id],
				plan:  plan,
				obs:   obs,
			}
			res := &results[id]
			proc := p.New(sim.Env{ID: id, Params: params, Initial: cfg[id], Mode: mode})
			res.value, res.at, res.decided, res.err = nd.drive(proc)
		}(types.ProcID(i))
	}
	wg.Wait()
	shutdown()

	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
	}

	// Reconstruct the effective pattern the network induced and check
	// that the run stayed inside the paper's failure model.
	pat, err := obs.Reconstruct(mode)
	if err != nil {
		return nil, &ReconstructionError{Err: err}
	}
	if err := pat.CheckBound(params.T); err != nil {
		return nil, &ReconstructionError{Err: err}
	}
	telemetry.Emit("net.reconstructed", telemetry.L("pattern", pat.String()))
	tr := sim.NewTrace(p.Name(), cfg, pat)
	tr.Sent, tr.Delivered = obs.Counts()
	for i := range results {
		if results[i].decided {
			tr.Record(types.ProcID(i), results[i].value, results[i].at)
		}
	}
	return tr, nil
}

// VerifyReconstruction replays the live trace's reconstructed pattern
// on the deterministic engine and returns an error describing the
// first divergence — decisions, decision times, or message counters.
// A nil error is the machine-checked statement that the chaos run is
// trace-equivalent to the paper-semantics run under its reconstructed
// failure pattern.
func VerifyReconstruction(p sim.Protocol, params types.Params, live *sim.Trace) error {
	replay, err := sim.Run(p, params, live.Config, live.Pattern)
	if err != nil {
		return fmt.Errorf("nettransport: replay under reconstructed pattern failed: %w", err)
	}
	if d := sim.DiffTraces(live, replay); d != "" {
		return fmt.Errorf("nettransport: live run diverges from deterministic replay under reconstructed pattern %s: %s",
			live.Pattern, d)
	}
	return nil
}

// rframe is one event on a processor's merged inbox: a frame from a
// peer, or a permanent link-down notice (crash mode).
type rframe struct {
	from    types.ProcID
	round   types.Round
	payload []byte // nil for a null frame
	down    bool
}

// outFrame is one unit of work for a sender link.
type outFrame struct {
	round     types.Round
	payload   []byte // nil: null frame (round clock only)
	act       chaos.Action
	closeLink bool // half-close after earlier writes; go permanently silent
}

// connReg tracks live connections so shutdown can unblock goroutines
// parked in Read/Write.
type connReg struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func (g *connReg) add(c net.Conn) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		c.Close()
		return
	}
	g.conns[c] = struct{}{}
	g.mu.Unlock()
}

func (g *connReg) closeAll() {
	g.mu.Lock()
	g.closed = true
	for c := range g.conns {
		c.Close()
	}
	g.conns = map[net.Conn]struct{}{}
	g.mu.Unlock()
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// handshakeDeadline bounds the wait for an accepted connection's
// one-byte sender-ID handshake. Reconnects legitimately arrive any
// time up to the end of the round schedule, so the deadline is the
// schedule's end — t0 + (h+1)·deadline, one slack round past the last
// due time — not a constant: a fixed 5 s both cut off handshakes in
// long-horizon runs whose schedule outlives it and kept accept
// goroutines parked long after short runs had finished. A 5 s floor
// (from now) still covers dial latency and skew when the schedule end
// is near or past.
func handshakeDeadline(t0 time.Time, h int, deadline time.Duration, now time.Time) time.Time {
	end := t0.Add(time.Duration(h+1) * deadline)
	if floor := now.Add(5 * time.Second); end.Before(floor) {
		return floor
	}
	return end
}

// dialLink establishes one directed connection with the one-byte
// sender-ID handshake.
func dialLink(from types.ProcID, addr string, reg *connReg) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("nettransport: dial: %w", err)
	}
	reg.add(conn)
	if _, err := conn.Write([]byte{byte(from)}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("nettransport: handshake: %w", err)
	}
	return conn, nil
}

// recvLink owns the receiving end of one directed link: it decodes
// round-tagged frames onto the processor's merged inbox and survives
// connection churn by picking up replacement connections.
type recvLink struct {
	from, to types.ProcID
	replace  chan net.Conn
	out      chan<- rframe
	mode     failures.Mode
	ctx      context.Context
}

func (l *recvLink) run() {
	var conn net.Conn
	for {
		if conn == nil {
			select {
			case conn = <-l.replace:
			case <-l.ctx.Done():
				return
			}
		}
		r, payload, err := readRoundFrame(conn)
		if err == nil {
			select {
			case l.out <- rframe{from: l.from, round: r, payload: payload}:
			case <-l.ctx.Done():
				return
			}
			continue
		}
		conn.Close()
		conn = nil
		if l.mode == failures.Crash {
			// Crashes are irrevocable: a dead link stays dead, and the
			// receiver can immediately write off all later rounds.
			select {
			case l.out <- rframe{from: l.from, down: true}:
			case <-l.ctx.Done():
			}
			return
		}
		// Omission mode: wait for the sender to reconnect.
	}
}

// sendLink owns the sending end of one directed link: it serializes
// writes, realizes the chaos plan's per-frame actions, and redials
// with exponential backoff + jitter when the connection dies.
type sendLink struct {
	from, to types.ProcID
	addr     string
	q        chan outFrame
	mode     failures.Mode
	ctx      context.Context
	reg      *connReg

	conn     net.Conn
	dead     bool          // permanently silent (crash semantics)
	base     time.Duration // backoff
	max      time.Duration
	t0       time.Time     // shared round-schedule anchor
	deadline time.Duration // for aiming delayed frames past their window
	rng      *rand.Rand
}

func (l *sendLink) run() {
	for {
		select {
		case f := <-l.q:
			l.handle(f)
		case <-l.ctx.Done():
			return
		}
	}
}

func (l *sendLink) handle(f outFrame) {
	if f.closeLink {
		if l.conn != nil {
			halfClose(l.conn)
			l.conn = nil
		}
		l.dead = true
		return
	}
	if l.dead {
		return
	}
	switch f.act.Mech {
	case chaos.Drop, chaos.Partition:
		// Silence: the receiver's deadline expires.
	case chaos.Kill:
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
		if l.mode == failures.Crash {
			l.dead = true
		}
	case chaos.Delay:
		// Hold the frame until half a round past its due time, so it
		// arrives stale and the receiver discards it. (The write still
		// happens: a delayed frame is a real frame, just a late one.)
		due := l.t0.Add(time.Duration(f.round)*l.deadline + l.deadline/2)
		if !l.sleep(time.Until(due)) {
			return
		}
		l.write(f.round, f.payload, false)
	case chaos.Truncate:
		l.truncate(f)
	default:
		l.write(f.round, f.payload, f.act.Dup)
	}
}

// write emits the frame, reconnecting if the link is down; the frame
// (and at most one more for the duplicate) is abandoned if the write
// fails twice — the loss shows up as an omission, which is exactly
// what it is.
func (l *sendLink) write(r types.Round, payload []byte, dup bool) {
	for attempt := 0; attempt < 2; attempt++ {
		if l.conn == nil && !l.reconnect() {
			return
		}
		if err := writeRoundFrame(l.conn, r, payload); err == nil {
			if dup {
				writeRoundFrame(l.conn, r, payload) // receiver dedupes by round
			}
			return
		}
		l.conn.Close()
		l.conn = nil
		if l.mode == failures.Crash {
			l.dead = true
			return
		}
	}
}

// truncate writes a torn frame — a header promising more bytes than
// the stream will ever carry — and tears the connection down.
func (l *sendLink) truncate(f outFrame) {
	if l.conn == nil && !l.reconnect() {
		return
	}
	payload := f.payload
	if payload == nil {
		payload = []byte{0xde, 0xad, 0xbe, 0xef}
	}
	var hdr [2*binary.MaxVarintLen64 + 1]byte
	k := binary.PutUvarint(hdr[:], uint64(f.round))
	hdr[k] = flagPayload
	k += 1 + binary.PutUvarint(hdr[k+1:], uint64(len(payload)+16))
	torn := append(hdr[:k:k], payload[:len(payload)/2]...)
	l.conn.Write(torn)
	l.conn.Close()
	l.conn = nil
	if l.mode == failures.Crash {
		l.dead = true
	}
}

// reconnect redials with exponential backoff and jitter. Crash-mode
// links never come back: a dead connection is a crash.
func (l *sendLink) reconnect() bool {
	if l.mode == failures.Crash {
		l.dead = true
		return false
	}
	d := l.base
	for {
		conn, err := dialLink(l.from, l.addr, l.reg)
		if err == nil {
			l.conn = conn
			return true
		}
		jitter := d/2 + time.Duration(l.rng.Int63n(int64(d/2)+1))
		if !l.sleep(jitter) {
			return false
		}
		if d *= 2; d > l.max {
			d = l.max
		}
	}
}

func (l *sendLink) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-l.ctx.Done():
		return false
	}
}

// halfClose flushes and closes the write side when the transport
// supports it (a crashed processor's last frames still arrive), and
// falls back to a full close.
func halfClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
		return
	}
	c.Close()
}

// rnode drives one processor through the deadline-driven rounds.
type rnode struct {
	id       types.ProcID
	n        int
	h        types.Round
	t0       time.Time     // shared round-schedule anchor
	deadline time.Duration // round r frames are due by t0 + r·deadline
	inCh     chan rframe
	sends    []*sendLink
	plan     *chaos.Plan
	obs      *failures.Observation
}

func (nd *rnode) drive(proc sim.Process) (types.Value, types.Round, bool, error) {
	var (
		value   types.Value = types.Unset
		at      types.Round = -1
		decided bool
	)
	record := func(r types.Round) {
		if decided {
			return
		}
		if v, ok := proc.Decided(); ok {
			value, at, decided = v, r, true
		}
	}
	record(0)

	silencedAt, silenced := nd.plan.SilencedAfter(nd.id)
	dead := types.EmptySet
	stash := make(map[types.Round]map[types.ProcID][]byte)
	stashed := make(map[types.Round]types.ProcSet) // includes null frames
	inbox := make([]sim.Message, nd.n)

	for r := types.Round(1); r <= nd.h; r++ {
		out := proc.Send(r)
		if out != nil && len(out) != nd.n {
			return value, at, decided, fmt.Errorf("nettransport: process %d sent %d messages, want %d", nd.id, len(out), nd.n)
		}
		for j := 0; j < nd.n; j++ {
			dst := types.ProcID(j)
			if dst == nd.id {
				continue
			}
			var payload []byte
			if out != nil && out[j] != nil {
				b, ok := out[j].([]byte)
				if !ok {
					return value, at, decided, fmt.Errorf("nettransport: process %d produced a non-[]byte message", nd.id)
				}
				payload = b
				// Required is recorded even when the frame will never
				// be sent: a crashed or faulty processor's unsent
				// messages are precisely its omissions.
				nd.obs.Required(nd.id, r, dst)
				mNetRequired.Inc()
			}
			if silenced && r > silencedAt {
				continue // crashed: nothing more reaches the network
			}
			nd.sends[j].q <- outFrame{round: r, payload: payload, act: nd.plan.Action(nd.id, r, dst)}
		}
		if silenced && r == silencedAt {
			for j := 0; j < nd.n; j++ {
				if types.ProcID(j) != nd.id {
					nd.sends[j].q <- outFrame{closeLink: true}
				}
			}
		}

		// Receive phase: collect round-r frames until every live peer
		// is accounted for or the deadline expires.
		for j := range inbox {
			inbox[j] = nil
		}
		pending := types.EmptySet
		accept := func(from types.ProcID, payload []byte) {
			if payload != nil {
				inbox[from] = payload
				nd.obs.Delivered(from, r, nd.id)
				mNetDelivered.Inc()
			}
		}
		for j := 0; j < nd.n; j++ {
			peer := types.ProcID(j)
			if peer == nd.id {
				continue
			}
			if stashed[r].Contains(peer) {
				accept(peer, stash[r][peer])
				continue
			}
			if dead.Contains(peer) {
				continue // permanently down: omission unless already stashed
			}
			pending = pending.Add(peer)
		}
		handle := func(f rframe) {
			switch {
			case f.down:
				dead = dead.Add(f.from)
				pending = pending.Remove(f.from)
			case f.round == r && pending.Contains(f.from):
				pending = pending.Remove(f.from)
				accept(f.from, f.payload)
			case f.round > r && !stashed[f.round].Contains(f.from):
				if stash[f.round] == nil {
					stash[f.round] = make(map[types.ProcID][]byte)
				}
				stash[f.round][f.from] = f.payload
				stashed[f.round] = stashed[f.round].Add(f.from)
			default:
				// Stale round or duplicate — discard. These are the
				// frames that physically arrived but too late to count
				// (chaos-delayed frames land here).
			}
		}
		if !pending.Empty() {
			timer := time.NewTimer(time.Until(nd.t0.Add(time.Duration(r) * nd.deadline)))
		waiting:
			for !pending.Empty() {
				select {
				case f := <-nd.inCh:
					handle(f)
				case <-timer.C:
					// Drain frames that raced the deadline, then write
					// the rest off as omissions.
				drain:
					for !pending.Empty() {
						select {
						case f := <-nd.inCh:
							handle(f)
						default:
							break drain
						}
					}
					break waiting
				}
			}
			timer.Stop()
		}
		delete(stash, r)
		delete(stashed, r)

		proc.Receive(r, inbox)
		record(r)
	}
	return value, at, decided, nil
}
