// Command perfbench is the repository's benchmark. It drives one of three
// named workloads against deployments built from the program's own
// packages, checks every output, and prints every end-to-end metric by
// name and unit (or, with --trace 1, the per-layer breakdown). See
// NOTES.md for the workloads, the metrics and how the layers are timed.
//
//	perfbench --workload browse_local --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope is the full record of a run, printed before the result line:
// {experiment, env, params, results}.
type envelope struct {
	Experiment string         `json:"experiment"`
	Env        map[string]any `json:"env"`
	Params     map[string]any `json:"params"`
	Results    map[string]any `json:"results"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "browse_local, browse_cell or ingest_analyze")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed window length")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.work, "work", "", "scratch directory (default .bench_build/perfbench-<pid>)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.work == "" {
		o.work = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	os.Exit(benchmain(o))
}

func benchmain(o options) int {
	r, err := newRun(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	start := time.Now()
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env, res, invalid := r.report()
	env.Results["wall_s"] = time.Since(start).Seconds()
	line, _ := json.Marshal(env)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed: %s\n", r.failed, r.attempted, r.failureText())
	}
	for _, why := range invalid {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", why)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// tailWindow is the sample count of each window page_p99_ms takes the
// median over: enough for ten samples beyond each window's p99.
const tailWindow = 100 * minBeyond

// maxLateMS is how late the generator may wake (p99) before the run no
// longer measures the schedule it claims to. An idle 2-CPU reference host
// already overshoots a 2.5 ms sleep by 7 ms at p99.
const maxLateMS = 25

// report builds the envelope and the result line, and lists the reasons
// the run is invalid, if any.
func (r *run) report() (envelope, result, []string) {
	var invalid []string
	page := summarize(r.pageLat, 0.99)
	ana := summarize(r.anaLat, 0.90)
	lag := summarize(r.ingestLag, 0.90)
	late := summarize(r.late, 0.99)
	if !r.o.trace {
		for name, s := range map[string]Summary{"page": page, "analysis": ana, "ingest_lag": lag} {
			if !s.Valid() {
				invalid = append(invalid, fmt.Sprintf("%s p%.0f has %d samples beyond it (n=%d), want >= %d",
					name, 100*s.TailQ, s.Beyond, s.N, minBeyond))
			}
		}
	}
	if late.N > 0 && late.Tail > maxLateMS {
		invalid = append(invalid, fmt.Sprintf("load generator fell behind its schedule: late p99 %.2f ms > %d ms", late.Tail, maxLateMS))
	}
	if err := noCapacityModel(); err != nil {
		invalid = append(invalid, err.Error())
	}

	res := result{
		Correct:   r.failed == 0 && len(invalid) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.o.trace {
		for _, name := range perLayerNames {
			m, ok := r.layerMetrics[name]
			if !ok {
				res.Correct = false
				invalid = append(invalid, "per-layer metric "+name+" not measured")
			}
			res.Metrics[name] = m
		}
	} else {
		cpuPerOp := 0.0
		if r.ops > 0 {
			cpuPerOp = float64(r.cpu.Microseconds()) / float64(r.ops)
		}
		for name, m := range map[string]metric{
			"setup_s":       {r.setupS, "s"},
			"page_p50_ms":   {page.P50, "ms"},
			"cpu_us_per_op": {cpuPerOp, "us"},
			"ok_frac":       {1 - float64(r.failed)/float64(res.Attempted), "frac"},
			"live_heap_mb":  {r.heapMB, "MB"},
			"space_amp":     {r.spaceAmp, "ratio"},
		} {
			res.Metrics[name] = m
		}
	}

	env := envelope{
		Experiment: "perfbench/" + r.o.workload,
		Env: map[string]any{
			"commit":     commit(),
			"go":         runtime.Version(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"date":       time.Now().UTC().Format(time.RFC3339),
		},
		Params: map[string]any{
			"workload": r.o.workload, "seed": r.o.seed, "seconds": r.o.seconds, "trace": r.o.trace,
			"conns": conns, "days": r.sp.days, "day_length_s": r.sp.dayLength, "flares_per_day": r.sp.flares,
			"unit_seconds": r.sp.unitSeconds, "load_ingest_every_ms": ms(r.sp.ingestEvery),
			"load_analyses": r.sp.analyses, "page_rate": r.sp.pageRate, "browse_windows": r.sp.windows,
			"session_share": r.sp.sessionShare, "stream_every_ms": ms(r.sp.streamEvery),
			"reader_rate": r.sp.readerRate, "popular_share": r.sp.popularShare, "image_size": imageSize,
			"setup_reps": setupReps, "dm_query_cache_entries": dmQueryCacheEntries,
		},
		Results: map[string]any{
			"page": page, "analysis": ana, "ingest_lag": lag, "generator_late": late,
			"page_p99_windowed": windowedTail(r.pageRes, 0.99, tailWindow),
			"analyses_per_s":    r.anaRate,
			"events":            len(r.hles), "analyses_committed": r.committed, "units_acked": len(r.units),
			"distinct_pages": r.distinct, "raw_bytes": r.rawBytes,
			"attempted": r.attempted, "failed": r.failed, "failures": r.failures,
			"invalid": invalid, "metrics": res.Metrics, "counters": r.counters,
			"background_ms": r.background,
		},
	}
	res.Correct = res.Correct && len(invalid) == 0
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	return env, res, invalid
}

// dmQueryCacheEntries is the DM's epoch-keyed query cache capacity
// (internal/dm/dm.go), stated beside the workloads' distinct page counts.
const dmQueryCacheEntries = 4096

// commit names the source revision: git's when the checkout is a git
// work tree, and always a digest of the Go sources and module files the
// benchmark was built from (the checkout it runs in need not be a git
// repository).
func commit() map[string]string {
	out := map[string]string{"source_sha256": sourceDigest()}
	if _, err := os.Stat(".git"); err == nil {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			out["git"] = strings.TrimSpace(string(rev))
		}
	}
	return out
}

func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
