package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// WorkDir is where the benchmark keeps everything it writes, relative
// to the module root: built binaries, cache directories, result and
// span files. The root .gitignore names it.
const WorkDir = ".bench_build"

// ModuleRoot walks up from the working directory to the go.mod that
// owns this package, so the benchmark runs from the checkout root (the
// driver) and from a package directory (go test) alike.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "ebad")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the eba module (no go.mod with cmd/ebad above the working directory)")
		}
		dir = parent
	}
}

// Binaries are the programs under test, built from the checkout.
type Binaries struct {
	Ebacheck, Ebad string
	// BuildSeconds is how long `go build` took; informational, never
	// part of setup_s.
	BuildSeconds float64
}

// Build compiles cmd/ebacheck and cmd/ebad into binDir with the plain
// toolchain defaults — the binaries a user would get.
func Build(root, binDir string) (*Binaries, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/ebacheck", "./cmd/ebad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	return &Binaries{
		Ebacheck:     filepath.Join(abs, "ebacheck"),
		Ebad:         filepath.Join(abs, "ebad"),
		BuildSeconds: time.Since(start).Seconds(),
	}, nil
}

// checkRun is one finished ebacheck child.
type checkRun struct {
	Wall   time.Duration
	CPU    time.Duration // user + system, from rusage
	RSSKB  int64         // peak resident set, from rusage
	Stdout []byte
}

// runEbacheck runs ebacheck on the key as a child process. parallel is
// passed as -parallel when non-zero; zero leaves the binary's default.
func (b *Binaries) runEbacheck(k Key, parallel int) (checkRun, error) {
	args := []string{"-n", strconv.Itoa(k.N), "-t", strconv.Itoa(k.T), "-mode", k.Mode, "-h", strconv.Itoa(k.H)}
	if parallel != 0 {
		args = append(args, "-parallel", strconv.Itoa(parallel))
	}
	cmd := exec.Command(b.Ebacheck, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	run := checkRun{Wall: time.Since(start), Stdout: stdout.Bytes()}
	if err != nil {
		return run, fmt.Errorf("bench: ebacheck %s: %w: %s", k.Slug(), err, bytes.TrimSpace(stderr.Bytes()))
	}
	run.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.RSSKB = ru.Maxrss
	}
	return run, nil
}

// daemon is one running ebad child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan error
}

// startDaemon launches ebad on a free loopback port with only the
// flags the workload defines (-addr, -cachedir and, when maxMem > 0,
// -maxmem) and waits for /healthz.
func (b *Binaries) startDaemon(cacheDir string, maxMem int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-cachedir", cacheDir}
	if maxMem > 0 {
		args = append(args, "-maxmem", strconv.Itoa(maxMem))
	}
	d := &daemon{cmd: exec.Command(b.Ebad, args...), base: "http://" + addr, done: make(chan error, 1)}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start ebad: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case werr := <-d.done:
			return nil, fmt.Errorf("bench: ebad exited during start-up: %v: %s", werr, bytes.TrimSpace(d.stderr.Bytes()))
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bench: ebad not healthy after 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if it does not within the grace it was started with.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	select {
	case <-d.done:
	case <-ctx.Done():
		_ = d.cmd.Process.Kill() // same: racing its own exit is fine
		<-d.done
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU fields; it is
// 100 on every Linux the toolchain supports.
const clockTick = 100

// cpu reads the daemon's cumulative user+system CPU time from procfs.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14, stime 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc stat CPU fields %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// peakRSSKB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
