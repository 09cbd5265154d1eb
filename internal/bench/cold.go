package bench

import (
	"bytes"
	"fmt"
	"time"
)

// RunCold is the cold-verdict workload with tracing off: the
// researcher's path. Each iteration runs `ebacheck -parallel 1` on
// every cold key as a fresh child process, then the large keys again
// at the binary's default parallelism, and compares each child's
// stdout byte-for-byte with its golden. An operation is one child.
func RunCold(bins *Binaries, size Size, seed int64) (*Result, error) {
	res := newResult(ColdVerdict, false, seed)
	total := time.Now()

	// Set-up: load the goldens and run the small keys once, discarded,
	// so the binary and its pages are warm before anything is timed. It
	// is a tenth of a second of mostly process start-up, too noisy for a
	// median of three, so it is repeated three times as often as the
	// daemons' set-up.
	var goldens *Goldens
	var setups []float64
	for i := 0; i < 3*size.SetupRepeats; i++ {
		start := time.Now()
		g, err := LoadGoldens()
		if err != nil {
			return nil, err
		}
		for _, k := range size.ColdKeys {
			if !k.small() {
				continue
			}
			if _, err := bins.runEbacheck(k, 1); err != nil {
				return nil, err
			}
		}
		goldens = g
		setups = append(setups, time.Since(start).Seconds())
	}

	var (
		walls                    []time.Duration
		serial, parallel, serCPU []float64
		cpu                      time.Duration
		// rssMB collects peak RSS per (key, parallelism): the parallel
		// runs of one key differ by 15% with GC timing, so the metric is
		// the largest per-configuration median, not the largest run.
		rssMB = map[string][]float64{}
	)
	check := func(k Key, par int) checkRun {
		res.Attempted++
		run, err := bins.runEbacheck(k, par)
		switch {
		case err != nil:
			res.fail("%v", err)
			return run
		case !bytes.Equal(run.Stdout, goldens.Verdict(k)):
			res.fail("ebacheck %s (-parallel %d): stdout differs from golden", k.Slug(), par)
			return run
		}
		walls = append(walls, run.Wall)
		cpu += run.CPU
		cfg := fmt.Sprintf("%s/%d", k.Slug(), par)
		rssMB[cfg] = append(rssMB[cfg], float64(run.RSSKB)/1024)
		return run
	}
	window := time.Now()
	for it := 0; it < size.ColdIterations; it++ {
		var ser, par, serC time.Duration
		for _, k := range size.ColdKeys {
			run := check(k, 1)
			ser += run.Wall
			serC += run.CPU
		}
		for _, k := range size.ParKeys {
			run := check(k, 0)
			par += run.Wall
		}
		serial = append(serial, ser.Seconds())
		parallel = append(parallel, par.Seconds())
		serCPU = append(serCPU, serC.Seconds())
	}
	windowS := time.Since(window).Seconds()

	ok := len(walls)
	lat := Summarize(walls)
	res.set("setup_s", median(setups))
	if ok > 0 {
		res.set("qps", float64(ok)/windowS)
		res.set("latency_p50_ms", lat.P50MS)
		res.set("latency_p99_ms", lat.P99MS)
		res.set("server_cpu_us_per_query", micros(cpu)/float64(ok))
		peak := 0.0
		for _, v := range rssMB {
			peak = max(peak, median(v))
		}
		res.set("peak_rss_mb", peak)
	}
	res.set("verdict_s", median(serial))
	res.set("verdict_par_s", median(parallel))
	res.set("verdict_cpu_s", median(serCPU))
	res.Extra["build_s"] = Value{bins.BuildSeconds, "s"}
	res.Timings["ebacheck_run"] = lat
	res.Counts["iterations"] = size.ColdIterations
	res.Counts["serial_keys"] = len(size.ColdKeys)
	res.Counts["parallel_keys"] = len(size.ParKeys)
	res.Counts["setup_repeats"] = len(setups)
	res.Durations["window"] = windowS
	res.Durations["total"] = time.Since(total).Seconds()
	res.finish()
	return res, nil
}
