// Command ebarun executes one run of a protocol and prints the
// decisions. It is the quickest way to watch the paper's protocols
// behave under injected failures: scripted failures run on the
// deterministic engine, seeded network faults on the TCP runtime.
//
// Usage examples:
//
//	ebarun -protocol p0opt -mode crash -config 0111 -silent 0@2
//	ebarun -protocol chain0 -mode omission -config 0111 -except 0@2-3 -verbose
//	ebarun -protocol chain0 -mode receiving-omission -config 0111 -deaf 2@1
//	ebarun -protocol floodset -config 1010
//
// Failure specs (comma-separated, all named processors are faulty):
//
//	-silent p@k     processor p sends nothing from round k on
//	                (modes with sending faults)
//	-deaf p@k       processor p receives nothing from round k on
//	                (receiving-omission and general-omission modes)
//	-except p@m-d   p is silent except one delivery to d in round m
//	                (omission mode only)
//
// Chaos mode runs the protocol on the resilient TCP runtime with
// seeded network-fault injection instead of a scripted pattern; the
// effective pattern is reconstructed from what the network actually
// delivered and cross-checked against the deterministic engine:
//
//	ebarun -protocol chain0 -mode omission -config 0111 -chaos auto -seed 7
//	ebarun -protocol p0opt -config 0111 -chaos drop,kill -deadline 300ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	eba "github.com/eventual-agreement/eba"
	"github.com/eventual-agreement/eba/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ebarun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protoName = flag.String("protocol", "p0opt", "p0 | p1 | p0opt | chain0 | floodset")
		modeName  = flag.String("mode", "crash", "crash | omission | receiving-omission | general-omission")
		config    = flag.String("config", "0111", "initial values, one digit per processor")
		tFlag     = flag.Int("t", -1, "fault bound (default: number of faulty processors, min 1)")
		horizon   = flag.Int("h", 0, "rounds to run (default: t+2)")
		silent    = flag.String("silent", "", "silent failures, e.g. 2@1,3@2")
		deaf      = flag.String("deaf", "", "deaf failures (receiving modes), e.g. 2@1")
		except    = flag.String("except", "", "silent-except-one failures, e.g. 0@2-1")
		verbose   = flag.Bool("verbose", false, "trace every round and message (not with -chaos)")
		chaosSpec = flag.String("chaos", "", `run on the resilient TCP runtime with seeded fault injection: "auto" or a mechanism list, e.g. "drop,delay,kill"`)
		seed      = flag.Int64("seed", 1, "chaos plan seed (with -chaos)")
		deadline  = flag.Duration("deadline", 0, "per-round receive deadline (with -chaos; 0 = default)")
		parallel  = flag.Int("parallel", 0, "worker bound for the knowledge audit (0 = all cores, 1 = sequential)")
		tel       = telemetry.BindFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := tel.Start(); err != nil {
		return err
	}
	defer tel.Close()
	eba.SetParallelism(*parallel)
	if *chaosSpec != "" {
		if *verbose {
			return fmt.Errorf("-chaos picks its own engine (drop -verbose)")
		}
		if *silent != "" || *deaf != "" || *except != "" {
			return fmt.Errorf("-chaos draws failures from the seed (drop -silent/-deaf/-except)")
		}
	}

	cfg, err := parseConfig(*config)
	if err != nil {
		return err
	}
	n := cfg.N()

	mode, err := eba.ParseMode(*modeName)
	if err != nil {
		return err
	}

	proto, err := pickProtocol(*protoName)
	if err != nil {
		return err
	}

	specs, err := parseFailures(*silent, *deaf, *except, n)
	if err != nil {
		return err
	}
	if len(specs.except) > 0 && mode != eba.Omission {
		return fmt.Errorf("-except requires -mode omission")
	}
	if len(specs.silents) > 0 && !mode.HasSendingFaults() {
		return fmt.Errorf("-silent requires a mode with sending faults (use -deaf in %s mode)", mode)
	}
	if len(specs.deafs) > 0 && !mode.HasReceivingFaults() {
		return fmt.Errorf("-deaf requires -mode receiving-omission or general-omission")
	}

	t := *tFlag
	if t < 0 {
		t = len(specs.faulty)
		if t == 0 {
			t = 1
		}
	}
	h := *horizon
	if h == 0 {
		h = t + 2
	}

	if *chaosSpec != "" {
		return runChaos(*protoName, mode, cfg, t, h, *chaosSpec, *seed, *deadline)
	}

	pat, err := buildPattern(mode, n, h, specs)
	if err != nil {
		return err
	}

	params := eba.Params{N: n, T: t}
	fmt.Printf("%s on deterministic engine | n=%d t=%d h=%d | config %s | %s\n",
		proto.Name(), n, t, h, cfg, pat)

	var obs eba.Observer
	if *verbose {
		obs = &eba.TextObserver{W: os.Stdout}
	}
	tr, err := eba.RunObserved(proto, params, cfg, pat, obs)
	if err != nil {
		return err
	}
	for p := eba.ProcID(0); p < eba.ProcID(n); p++ {
		status := "faulty"
		if pat.Nonfaulty().Contains(p) {
			status = "nonfaulty"
		}
		if v, at, ok := tr.DecisionOf(p); ok {
			fmt.Printf("  proc %d (%s): decides %s at time %d\n", p, status, v, at)
		} else {
			fmt.Printf("  proc %d (%s): undecided by time %d\n", p, status, h)
		}
	}
	if !tr.NonfaultyDecided() {
		fmt.Println("  warning: some nonfaulty processor is undecided within the horizon")
	}
	return nil
}

// runChaos executes the protocol on the resilient TCP runtime under a
// seeded chaos plan, prints the reconstructed failure pattern, and
// cross-checks the live trace against the deterministic engine.
func runChaos(protoName string, mode eba.Mode, cfg eba.Config, t, h int, spec string, seed int64, deadline time.Duration) error {
	pair, err := pickPair(protoName, t)
	if err != nil {
		return err
	}
	mechs, err := parseMechanisms(spec)
	if err != nil {
		return err
	}
	params := eba.Params{N: cfg.N(), T: t}
	plan, err := eba.NewChaosPlan(mode, params, h, seed, mechs...)
	if err != nil {
		return err
	}
	proto := eba.FIPWire(pair)
	fmt.Printf("%s on resilient TCP runtime | n=%d t=%d h=%d | config %s\n%s\n",
		proto.Name(), cfg.N(), t, h, cfg, plan)

	tr, err := eba.RunResilient(proto, params, cfg, eba.ResilientOptions{Plan: plan, Deadline: deadline})
	if err != nil {
		return err
	}
	for p := eba.ProcID(0); p < eba.ProcID(cfg.N()); p++ {
		status := "faulty"
		if tr.Pattern.Nonfaulty().Contains(p) {
			status = "nonfaulty"
		}
		if v, at, ok := tr.DecisionOf(p); ok {
			fmt.Printf("  proc %d (%s): decides %s at time %d\n", p, status, v, at)
		} else {
			fmt.Printf("  proc %d (%s): undecided by time %d\n", p, status, h)
		}
	}
	fmt.Printf("reconstructed %s (sent %d, delivered %d)\n", tr.Pattern, tr.Sent, tr.Delivered)

	// Replay on the deterministic engine: the same cross-check
	// VerifyResilient performs, with the divergence printed.
	replay, err := eba.Run(proto, params, cfg, tr.Pattern)
	if err != nil {
		return fmt.Errorf("replay under reconstructed pattern failed: %w", err)
	}
	if d := eba.DiffTraces(tr, replay); d != "" {
		return fmt.Errorf("live run diverges from deterministic replay under reconstructed pattern %s: %s", tr.Pattern, d)
	}
	fmt.Println("deterministic replay under the reconstructed pattern: identical trace")

	return auditChaos(pair, params, mode, cfg, h, tr)
}

// auditChaos model-checks the reconstructed run: it enumerates the
// two-pattern system {failure-free, reconstructed} and (a) reports
// where continual and eventual common knowledge of ∃0 hold along the
// reconstructed run, (b) cross-checks every live decision against the
// model checker's FIP decision for the same pair — sound because the
// views of a full-information protocol are independent of the decision
// rule (Proposition 2.2), so the enumerated run's states are exactly
// the live run's states.
func auditChaos(pair eba.Pair, params eba.Params, mode eba.Mode, cfg eba.Config, h int, tr *eba.Trace) error {
	pats := []*eba.Pattern{eba.FailureFree(mode, params.N, h)}
	if tr.Pattern.Key() != pats[0].Key() {
		pats = append(pats, tr.Pattern)
	}
	sys, err := eba.NewSystemFromPatterns(params, mode, h, pats)
	if err != nil {
		return fmt.Errorf("knowledge audit: %w", err)
	}
	e := eba.NewEvaluator(sys)
	run, ok := sys.FindRun(cfg, tr.Pattern.Key())
	if !ok {
		return fmt.Errorf("knowledge audit: reconstructed run missing from audit system")
	}

	nf := eba.Nonfaulty()
	firstHold := func(f eba.Formula) string {
		tbl := e.Eval(f)
		for m := 0; m <= h; m++ {
			if tbl.Get(sys.PointIndex(eba.Point{Run: run.Index, Time: eba.Round(m)})) {
				return fmt.Sprintf("from time %d", m)
			}
		}
		return "never (within horizon)"
	}
	fmt.Printf("knowledge audit over {failure-free, reconstructed} (%d runs, %d points, %d views):\n",
		sys.NumRuns(), sys.NumPoints(), sys.Interner.Size())
	fmt.Printf("  C□_N(∃0) along the reconstructed run: %s\n", firstHold(eba.CBox(nf, eba.Exists0())))
	fmt.Printf("  C◇_N(∃0) along the reconstructed run: %s\n", firstHold(eba.CDiamond(nf, eba.Exists0())))

	for p := eba.ProcID(0); p < eba.ProcID(params.N); p++ {
		mv, mat, mok := eba.DecisionAt(sys, pair, run, p)
		lv, lat, lok := tr.DecisionOf(p)
		if mok != lok || (mok && (mv != lv || mat != lat)) {
			return fmt.Errorf("knowledge audit: proc %d live decision (%s@%d, decided=%v) != model checker (%s@%d, decided=%v)",
				p, lv, lat, lok, mv, mat, mok)
		}
	}
	fmt.Println("  live decisions match the model checker's FIP decisions point for point")
	return nil
}

// pickPair maps a protocol name to its decision pair — the form the
// wire-format full-information adapter (and hence the TCP engines)
// can run.
func pickPair(name string, t int) (eba.Pair, error) {
	switch strings.ToLower(name) {
	case "p0":
		return eba.P0Pair(t), nil
	case "p1":
		return eba.P1Pair(t), nil
	case "p0opt":
		return eba.P0OptPair(), nil
	case "chain0":
		return eba.Chain0Pair(), nil
	case "floodset":
		return eba.Pair{}, fmt.Errorf("floodset is a simultaneous-agreement protocol with no decision pair; -chaos needs p0|p1|p0opt|chain0")
	default:
		return eba.Pair{}, fmt.Errorf("unknown protocol %q", name)
	}
}

// parseMechanisms parses the -chaos value: "auto" (mode defaults) or a
// comma-separated mechanism list.
func parseMechanisms(spec string) ([]eba.ChaosMechanism, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "auto") {
		return nil, nil
	}
	var out []eba.ChaosMechanism
	for _, part := range splitList(spec) {
		m, err := eba.ParseChaosMechanism(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -chaos spec (want \"auto\" or a mechanism list)")
	}
	return out, nil
}

func parseConfig(s string) (eba.Config, error) {
	vals := make([]eba.Value, len(s))
	for i, c := range s {
		switch c {
		case '0':
			vals[i] = eba.Zero
		case '1':
			vals[i] = eba.One
		default:
			return nil, fmt.Errorf("config digit %q (want 0/1)", c)
		}
	}
	return eba.NewConfig(vals...)
}

func pickProtocol(name string) (eba.Protocol, error) {
	switch strings.ToLower(name) {
	case "p0":
		return eba.P0(), nil
	case "p1":
		return eba.P1(), nil
	case "p0opt":
		return eba.P0Opt(), nil
	case "chain0":
		return eba.Chain0(), nil
	case "floodset":
		return eba.FloodSet(), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}

type failureSpecs struct {
	faulty  map[eba.ProcID]bool
	silents map[eba.ProcID]int // proc -> first silent round
	deafs   map[eba.ProcID]int // proc -> first deaf round
	except  map[eba.ProcID][2]int
}

func parseFailures(silent, deaf, except string, n int) (*failureSpecs, error) {
	specs := &failureSpecs{
		faulty:  make(map[eba.ProcID]bool),
		silents: make(map[eba.ProcID]int),
		deafs:   make(map[eba.ProcID]int),
		except:  make(map[eba.ProcID][2]int),
	}
	addProc := func(p int) (eba.ProcID, error) {
		if p < 0 || p >= n {
			return 0, fmt.Errorf("processor %d out of range [0,%d)", p, n)
		}
		id := eba.ProcID(p)
		if specs.faulty[id] {
			return 0, fmt.Errorf("processor %d appears in two failure specs", p)
		}
		specs.faulty[id] = true
		return id, nil
	}
	for _, part := range splitList(silent) {
		var p, k int
		if _, err := fmt.Sscanf(part, "%d@%d", &p, &k); err != nil {
			return nil, fmt.Errorf("bad -silent entry %q (want p@k)", part)
		}
		if k < 1 {
			return nil, fmt.Errorf("silent round %d < 1", k)
		}
		id, err := addProc(p)
		if err != nil {
			return nil, err
		}
		specs.silents[id] = k
	}
	for _, part := range splitList(deaf) {
		var p, k int
		if _, err := fmt.Sscanf(part, "%d@%d", &p, &k); err != nil {
			return nil, fmt.Errorf("bad -deaf entry %q (want p@k)", part)
		}
		if k < 1 {
			return nil, fmt.Errorf("deaf round %d < 1", k)
		}
		id, err := addProc(p)
		if err != nil {
			return nil, err
		}
		specs.deafs[id] = k
	}
	for _, part := range splitList(except) {
		var p, m, d int
		if _, err := fmt.Sscanf(part, "%d@%d-%d", &p, &m, &d); err != nil {
			return nil, fmt.Errorf("bad -except entry %q (want p@m-d)", part)
		}
		id, err := addProc(p)
		if err != nil {
			return nil, err
		}
		if d < 0 || d >= n {
			return nil, fmt.Errorf("destination %d out of range", d)
		}
		if m < 1 {
			return nil, fmt.Errorf("delivery round %d < 1", m)
		}
		specs.except[id] = [2]int{m, d}
	}
	return specs, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func buildPattern(mode eba.Mode, n, h int, specs *failureSpecs) (*eba.Pattern, error) {
	var faulty eba.ProcSet
	behavior := make(map[eba.ProcID]*eba.Behavior)
	full := func(p eba.ProcID) eba.ProcSet {
		var s eba.ProcSet
		for q := 0; q < n; q++ {
			if eba.ProcID(q) != p {
				s = s.Add(eba.ProcID(q))
			}
		}
		return s
	}
	for p, k := range specs.silents {
		faulty = faulty.Add(p)
		b := &eba.Behavior{Omit: make([]eba.ProcSet, h)}
		for r := k; r <= h; r++ {
			b.Omit[r-1] = full(p)
		}
		behavior[p] = b
	}
	for p, k := range specs.deafs {
		faulty = faulty.Add(p)
		b := &eba.Behavior{Recv: make([]eba.ProcSet, h)}
		for r := k; r <= h; r++ {
			b.Recv[r-1] = full(p)
		}
		behavior[p] = b
	}
	for p, md := range specs.except {
		faulty = faulty.Add(p)
		b := &eba.Behavior{Omit: make([]eba.ProcSet, h)}
		for r := 1; r <= h; r++ {
			b.Omit[r-1] = full(p)
			if r == md[0] {
				b.Omit[r-1] = b.Omit[r-1].Remove(eba.ProcID(md[1]))
			}
		}
		behavior[p] = b
	}
	return eba.NewPattern(mode, n, h, faulty, behavior)
}
