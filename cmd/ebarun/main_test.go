package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	eba "github.com/eventual-agreement/eba"
	"github.com/eventual-agreement/eba/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestGolden holds two scripted runs on the deterministic engine to
// goldens: a crash run traced round by round (-verbose) with a silent
// processor, and a receiving-omission run with a deaf one.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"crash-silent-verbose", []string{"-protocol", "p0opt", "-mode", "crash", "-config", "0111", "-silent", "0@1", "-verbose"}},
		{"receiving-omission-deaf", []string{"-protocol", "chain0", "-mode", "receiving-omission", "-config", "0111", "-deaf", "2@1"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			clitest.Golden(t, filepath.Join("testdata", tc.golden+".golden"), tc.args...)
		})
	}
}

// TestChaosRunReplays: an omission run over the resilient TCP runtime
// with a seeded chaos plan exits 0, its decisions replay identically on
// the deterministic engine under the reconstructed failure pattern, and
// they match the model checker's.
func TestChaosRunReplays(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-protocol", "chain0", "-mode", "omission", "-config", "0111", "-t", "2",
		"-chaos", "auto", "-seed", "7", "-deadline", "250ms")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"deterministic replay under the reconstructed pattern: identical trace",
		"match the model checker's FIP decisions",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestLiveFlagGone: the goroutine runtime's -live flag no longer
// exists, so asking for it is a usage error (exit 2), not a run.
func TestLiveFlagGone(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-live")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -live") || !strings.Contains(stderr, "-chaos") {
		t.Errorf("stderr is not the usage message:\n%s", stderr)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig("0110")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N() != 4 || cfg[0] != eba.Zero || cfg[1] != eba.One {
		t.Fatalf("cfg = %v", cfg)
	}
	if _, err := parseConfig("01x0"); err == nil {
		t.Fatal("bad digit accepted")
	}
	if _, err := parseConfig("1"); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestPickProtocol(t *testing.T) {
	for _, name := range []string{"p0", "P1", "p0opt", "chain0", "floodset"} {
		if _, err := pickProtocol(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := pickProtocol("nope"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestParseFailures(t *testing.T) {
	specs, err := parseFailures("2@1,3@2", "1@2", "0@2-1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs.faulty) != 4 || specs.silents[2] != 1 || specs.silents[3] != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs.deafs[1] != 2 {
		t.Fatalf("deafs = %v", specs.deafs)
	}
	if specs.except[0] != [2]int{2, 1} {
		t.Fatalf("except = %v", specs.except[0])
	}
	bad := []struct{ silent, deaf, except string }{
		{"9@1", "", ""},      // out of range
		{"1@0", "", ""},      // round < 1
		{"x@1", "", ""},      // malformed
		{"", "9@1", ""},      // deaf out of range
		{"", "1@0", ""},      // deaf round < 1
		{"", "x@1", ""},      // deaf malformed
		{"", "", "0@1-9"},    // dst out of range
		{"", "", "0@0-1"},    // round < 1
		{"", "", "junk"},     // malformed
		{"1@1", "", "1@2-0"}, // duplicate processor
		{"1@1", "1@2", ""},   // duplicate across silent and deaf
	}
	for _, b := range bad {
		if _, err := parseFailures(b.silent, b.deaf, b.except, 4); err == nil {
			t.Fatalf("accepted silent=%q deaf=%q except=%q", b.silent, b.deaf, b.except)
		}
	}
}

func TestBuildPattern(t *testing.T) {
	specs, err := parseFailures("2@2", "", "0@1-3", 4)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := buildPattern(eba.Omission, 4, 3, specs)
	if err != nil {
		t.Fatal(err)
	}
	if pat.Faulty() != eba.ProcSet(0b101) {
		t.Fatalf("faulty = %v", pat.Faulty())
	}
	// Processor 2 silent from round 2.
	if !pat.Delivers(2, 1, 0) || pat.Delivers(2, 2, 0) {
		t.Fatal("silent schedule wrong")
	}
	// Processor 0 delivers only to 3 in round 1.
	if !pat.Delivers(0, 1, 3) || pat.Delivers(0, 1, 1) || pat.Delivers(0, 2, 3) {
		t.Fatal("except schedule wrong")
	}

	// A deaf receiver is a receiving-omission pattern: processor 1
	// hears nobody from round 2 on, but still sends.
	specs, err = parseFailures("", "1@2", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	pat, err = buildPattern(eba.ReceivingOmission, 4, 3, specs)
	if err != nil {
		t.Fatal(err)
	}
	if pat.Faulty() != eba.ProcSet(0b10) {
		t.Fatalf("faulty = %v", pat.Faulty())
	}
	if !pat.Delivers(0, 1, 1) || pat.Delivers(0, 2, 1) || !pat.Delivers(1, 2, 0) {
		t.Fatal("deaf schedule wrong")
	}
	// A sending mode must reject the Recv schedule.
	if _, err := buildPattern(eba.Omission, 4, 3, specs); err == nil {
		t.Fatal("Recv schedule accepted in sending-omission mode")
	}
}

func TestPickPair(t *testing.T) {
	for _, name := range []string{"p0", "P1", "p0opt", "chain0"} {
		if _, err := pickPair(name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := pickPair("floodset", 1); err == nil {
		t.Fatal("floodset accepted for chaos runs")
	}
	if _, err := pickPair("nope", 1); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestParseMechanisms(t *testing.T) {
	if mechs, err := parseMechanisms("auto"); err != nil || mechs != nil {
		t.Fatalf("auto -> %v, %v", mechs, err)
	}
	mechs, err := parseMechanisms("drop, delay ,kill")
	if err != nil {
		t.Fatal(err)
	}
	want := []eba.ChaosMechanism{eba.ChaosDrop, eba.ChaosDelay, eba.ChaosKill}
	if len(mechs) != len(want) {
		t.Fatalf("mechs = %v", mechs)
	}
	for i := range want {
		if mechs[i] != want[i] {
			t.Fatalf("mechs = %v", mechs)
		}
	}
	if _, err := parseMechanisms("drop,warp"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if _, err := parseMechanisms(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
}

// End-to-end: a seeded chaos run through the CLI path completes and
// verifies against the deterministic engine.
func TestRunChaos(t *testing.T) {
	cfg, err := parseConfig("0111")
	if err != nil {
		t.Fatal(err)
	}
	if err := runChaos("chain0", eba.Omission, cfg, 2, 3, "drop,kill", 5, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
