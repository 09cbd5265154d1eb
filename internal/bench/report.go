package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Options select what one invocation of ebabench does.
type Options struct {
	// Workload, when set, runs that one workload in this process (the
	// driver's mode, and the mode of every child of a full run).
	Workload string
	Seed     int64
	Seconds  int
	// Traced selects the in-process per-layer pass instead of the
	// end-to-end pass.
	Traced bool
	Quick  bool
	// Dir is where binaries, caches, results and span files go;
	// "" means WorkDir under the module root.
	Dir string
}

func (o Options) size() Size {
	if o.Quick {
		return QuickSize()
	}
	return FullSize(o.Seconds)
}

func (o Options) dir(root string) string {
	if o.Dir != "" {
		return o.Dir
	}
	return filepath.Join(root, WorkDir)
}

// Envelope heads every result file: enough to tell two files apart
// and to know what the numbers in them were measured on and how.
type Envelope struct {
	Schema       int    `json:"schema"`
	Commit       string `json:"commit"`
	GoVersion    string `json:"go_version"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Quick        bool   `json:"quick,omitempty"`
	TimingMethod string `json:"timing_method"`
}

const timingMethod = "wall: Go monotonic clock around child processes and HTTP round trips; " +
	"CPU: rusage of ebacheck children, /proc/<pid>/stat utime+stime of ebad (USER_HZ 100); " +
	"memory: rusage Maxrss of ebacheck, VmHWM of ebad; timings are medians and nearest-rank percentiles; " +
	"query-cached and query-batch report the median one-second segment of their windows"

func newEnvelope(root string, o Options) Envelope {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Envelope{
		Schema: SchemaVersion, Commit: commit, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.Seed, Seconds: o.Seconds, Quick: o.Quick, TimingMethod: timingMethod,
	}
}

// ResultFile is one pass over one workload, as written to disk.
type ResultFile struct {
	Envelope
	Result *Result `json:"result"`
}

// passName distinguishes the two passes in file names.
func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "e2e"
}

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // formulas contain "->"
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// RunOne runs one pass over one workload in this process, prints every
// metric, writes the result file (and, for a traced pass, the span
// file) and ends stdout with the one-line JSON verdict.
func RunOne(o Options, stdout io.Writer) (*Result, error) {
	known := false
	for _, w := range Workloads {
		known = known || w.Name == o.Workload
	}
	if !known {
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	root, err := ModuleRoot()
	if err != nil {
		return nil, err
	}
	dir := o.dir(root)
	outDir := filepath.Join(dir, "out")
	runDir := filepath.Join(dir, "run")
	for _, d := range []string{outDir, runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	size := o.size()
	var res *Result
	if o.Traced {
		var rec *Recorder
		if res, rec, err = RunTraced(o.Workload, size, o.Seed, runDir); err != nil {
			return nil, err
		}
		if err := rec.WriteFile(filepath.Join(outDir, "spans-"+o.Workload+".jsonl")); err != nil {
			return nil, err
		}
	} else {
		bins, err := Build(root, filepath.Join(dir, "bin"))
		if err != nil {
			return nil, err
		}
		if o.Workload == ColdVerdict {
			res, err = RunCold(bins, size, o.Seed)
		} else {
			res, err = RunQuery(bins, o.Workload, size, o.Seed, runDir)
		}
		if err != nil {
			return nil, err
		}
	}
	res.Print(stdout)
	file := ResultFile{Envelope: newEnvelope(root, o), Result: res}
	if err := writeJSON(filepath.Join(outDir, o.Workload+"-"+passName(o.Traced)+".json"), file); err != nil {
		return nil, err
	}
	line, err := res.DriverLine()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, line)
	return res, nil
}

// WorkloadReport pairs a workload's two passes.
type WorkloadReport struct {
	EndToEnd *Result `json:"end_to_end"`
	Traced   *Result `json:"traced"`
	// CoverageE2E is how much of the end-to-end number the layer table
	// explains: in-process layer self-time per operation over the real
	// binary's wall time per operation.
	CoverageE2E Ratio `json:"trace.coverage_e2e"`
}

// Report is one full run: every workload, both passes, one envelope.
type Report struct {
	Envelope
	Workloads map[string]*WorkloadReport `json:"workloads"`
}

// Correct reports whether every pass verified every answer.
func (r *Report) Correct() bool {
	for _, w := range r.Workloads {
		if !w.EndToEnd.Correct || !w.Traced.Correct {
			return false
		}
	}
	return true
}

// RunAll runs every workload, each pass in its own child process of
// this executable so heap, GC state and peak memory do not leak from
// one workload into the next, and writes the combined result file.
func RunAll(o Options, stdout io.Writer) (*Report, error) {
	root, err := ModuleRoot()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := o.dir(root)
	rep := &Report{Envelope: newEnvelope(root, o), Workloads: make(map[string]*WorkloadReport)}
	for _, w := range Workloads {
		wr := &WorkloadReport{}
		for _, traced := range []bool{false, true} {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(o.Seed, 10),
				"-seconds", strconv.Itoa(o.Seconds), "-trace", map[bool]string{false: "0", true: "1"}[traced],
				"-dir", dir,
			}
			if o.Quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Dir = root
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			// Everything but the machine-readable last line is the
			// child's report.
			text := strings.TrimRight(out.String(), "\n")
			if i := strings.LastIndexByte(text, '\n'); i >= 0 && strings.HasPrefix(text[i+1:], "{") {
				text = text[:i]
			}
			fmt.Fprintln(stdout, text)
			var exit *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exit) {
				return nil, fmt.Errorf("bench: %s: %w", w.Name, runErr)
			}
			var file ResultFile
			data, err := os.ReadFile(filepath.Join(dir, "out", w.Name+"-"+passName(traced)+".json"))
			if err == nil {
				err = json.Unmarshal(data, &file)
			}
			if err != nil || file.Result == nil {
				return nil, fmt.Errorf("bench: %s (%s pass) left no result (child: %v): %v", w.Name, passName(traced), runErr, err)
			}
			if traced {
				wr.Traced = file.Result
			} else {
				wr.EndToEnd = file.Result
			}
		}
		wr.CoverageE2E = coverageE2E(wr.EndToEnd, wr.Traced)
		fmt.Fprintf(stdout, "  %-32s %s\n\n", "trace.coverage_e2e", wr.CoverageE2E)
		rep.Workloads[w.Name] = wr
	}
	path := filepath.Join(dir, "out", fmt.Sprintf("ebabench-seed%d.json", o.Seed))
	if err := writeJSON(path, rep); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "result file: %s\nspan files:  %s\n", path, filepath.Join(dir, "out", "spans-<workload>.jsonl"))
	return rep, nil
}

// coverageE2E relates the traced pipeline's layer self-time to the
// end-to-end pass's wall time, per operation so that passes of
// different lengths compare.
func coverageE2E(e2e, traced *Result) Ratio {
	layered := traced.Ratios["trace.coverage"].Num
	if e2e.Workload == ColdVerdict {
		return NewRatio(layered, e2e.Extra["verdict_s"].Value,
			"in-process layer self-times of one serial suite / verdict_s of the real binary, s")
	}
	if head := e2e.Durations["replay_head"]; head > 0 {
		return NewRatio(layered, head,
			"in-process handler self-time of the replayed head of the sequence / the real daemon's wall on the same requests, s")
	}
	perOpTraced := layered / float64(max(traced.Counts["replayed_requests"], 1))
	perOpE2E := e2e.Durations["window"] * float64(e2e.Counts["clients"]) / float64(max(e2e.Counts["queries"], 1))
	return NewRatio(perOpTraced, perOpE2E,
		"in-process handler self-time per replayed query / client-observed wall per query of the real daemon, s")
}

// SelfCheck runs the full set twice back to back and fails if any
// end-to-end metric moved by more than its own bound, or any exact
// count moved at all.
func SelfCheck(o Options, stdout io.Writer) error {
	var reps [2]*Report
	for i := range reps {
		fmt.Fprintf(stdout, "#### selfcheck: set %d of 2\n", i+1)
		rep, err := RunAll(o, stdout)
		if err != nil {
			return err
		}
		if !rep.Correct() {
			return errors.New("bench: selfcheck: a pass reported failed operations")
		}
		reps[i] = rep
	}
	var bad []string
	fmt.Fprintf(stdout, "\n#### selfcheck: set 2 against set 1\n")
	for _, w := range Workloads {
		a, b := reps[0].Workloads[w.Name], reps[1].Workloads[w.Name]
		for _, m := range append(append([]Metric(nil), EndToEnd...), WorkloadEndToEnd[w.Name]...) {
			va, vb := lookup(a.EndToEnd, m.Name), lookup(b.EndToEnd, m.Name)
			diff := NewRatio(math.Abs(vb-va), va, "|set 2 - set 1| / set 1, "+m.Unit)
			verdict := "ok"
			if diff.Value > m.Bound {
				verdict = "MOVED"
				bad = append(bad, fmt.Sprintf("%s %s moved %.1f%% (bound %.0f%%)", w.Name, m.Name, 100*diff.Value, 100*m.Bound))
			}
			fmt.Fprintf(stdout, "  %-14s %-26s %12.4f -> %12.4f %-5s %5.1f%% of %3.0f%%  %s\n",
				w.Name, m.Name, va, vb, m.Unit, 100*diff.Value, 100*m.Bound, verdict)
		}
		for _, name := range ExactCounts {
			if va, vb := a.Traced.Metrics[name].Value, b.Traced.Metrics[name].Value; va != vb {
				bad = append(bad, fmt.Sprintf("%s %s is an exact count but read %v then %v", w.Name, name, va, vb))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: selfcheck failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(stdout, "selfcheck passed: every end-to-end metric within its bound, every exact count identical")
	return nil
}

// lookup finds an end-to-end metric wherever the result keeps it.
func lookup(r *Result, name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v.Value
	}
	return r.Extra[name].Value
}
