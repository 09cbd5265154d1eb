package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
)

// Flags is the standard observability flag set shared by the eba
// binaries (-metrics, -tracefile, -pprof). Bind it to a FlagSet before
// parsing, Start it after, and Close it when the run finishes:
//
//	tel := telemetry.BindFlags(flag.CommandLine)
//	flag.Parse()
//	if err := tel.Start(); err != nil { ... }
//	defer tel.Close()
type Flags struct {
	// Metrics is where to write the exit snapshot: a file path or "-"
	// for stdout. A .json suffix selects the JSON exposition;
	// everything else gets the Prometheus text format.
	Metrics string
	// TraceFile is the JSONL span/event stream path ("" = no trace).
	TraceFile string
	// Pprof is the address to serve net/http/pprof and /metrics on
	// ("" = no server).
	Pprof string

	traceFile *os.File
	tracer    *Tracer
}

// BindFlags registers the telemetry flags on fs and returns the
// handle that Start/Close operate on.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", `write a metrics snapshot at exit: a path, or "-" for stdout (.json suffix = JSON, else Prometheus text)`)
	fs.StringVar(&f.TraceFile, "tracefile", "", "write a JSONL span/event trace alongside the run")
	fs.StringVar(&f.Pprof, "pprof", "", `serve net/http/pprof and a Prometheus /metrics endpoint on this address (e.g. "localhost:6060")`)
	return f
}

// Start opens the trace stream and the pprof/metrics server as
// requested by the parsed flags.
func (f *Flags) Start() error {
	if f.TraceFile != "" {
		file, err := os.Create(f.TraceFile)
		if err != nil {
			return fmt.Errorf("telemetry: create tracefile: %w", err)
		}
		f.traceFile = file
		f.tracer = SetTraceWriter(file)
	}
	if f.Pprof != "" {
		addr, err := Serve(f.Pprof)
		if err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving pprof and /metrics on http://%s\n", addr)
	}
	return nil
}

// Close detaches and closes the trace stream and writes the metrics
// snapshot. Safe to call when Start was never called or no flags were
// set.
func (f *Flags) Close() error {
	var firstErr error
	if f.traceFile != nil {
		SetTraceWriter(nil)
		if err := f.tracer.Err(); err != nil {
			firstErr = err
		}
		if err := f.traceFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		f.traceFile, f.tracer = nil, nil
	}
	if f.Metrics != "" {
		if err := writeSnapshot(f.Metrics); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func writeSnapshot(dest string) error {
	snap := Default().Snapshot()
	if dest == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	file, err := os.Create(dest)
	if err != nil {
		return fmt.Errorf("telemetry: create metrics file: %w", err)
	}
	if strings.HasSuffix(dest, ".json") {
		err = snap.WriteJSON(file)
	} else {
		err = snap.WritePrometheus(file)
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Serve starts an HTTP server on addr exposing the default registry at
// /metrics (Prometheus text format) and the standard pprof handlers
// under /debug/pprof/, for watching long resilient runs live. It
// returns the bound address; the server runs until the process exits.
func Serve(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	go http.Serve(ln, mux) //nolint:errcheck // runs for the process lifetime
	return ln.Addr().String(), nil
}

// MetricsHandler serves the default registry in the Prometheus text
// exposition format. The snapshot is rendered into memory first, so the
// only write that can fail is the response itself.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		Default().Snapshot().WritePrometheus(&buf) //nolint:errcheck // a bytes.Buffer write cannot fail
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes()) //nolint:errcheck // the connection is gone; nothing to do
	})
}
