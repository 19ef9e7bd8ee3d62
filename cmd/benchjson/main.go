// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so CI can archive benchmark
// results (BENCH.json) as an artifact and build a performance trajectory
// across commits instead of scraping logs.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' . | go run ./cmd/benchjson > BENCH.json
//
// Every benchmark line — name, iteration count, and each "value unit" pair
// (ns/op, B/op, and custom b.ReportMetric units like proj-speedup or
// pool-built) — becomes one entry; non-benchmark lines are ignored. The
// allocation counters (allocs/op, B/op) and the cluster benchmarks'
// wire-bytes/op metric are additionally lifted to stable top-level fields
// for trajectory tooling.
//
// -metrics FILE additionally folds a Prometheus text scrape (a saved
// `curl /metrics` body — see internal/obs) into the report's top-level
// "metrics" map: counters and gauges by name, histograms as NAME_count and
// NAME_sum. CI's metrics-smoke scrapes the serve process after its runs and
// archives the snapshot alongside the benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and the
	// GOMAXPROCS suffix, e.g. "BenchmarkLPTSkew/policy=lpt-8".
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every "value unit" pair on the line:
	// the standard ns/op plus any custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
	// AllocsPerOp lifts Metrics["allocs/op"] (from b.ReportAllocs runs) to a
	// stable top-level field, so trajectory tooling tracking allocation
	// regressions does not have to know the Go unit string. Omitted when the
	// benchmark did not report allocations.
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	// BytesPerOp lifts Metrics["B/op"], the heap bytes companion.
	BytesPerOp float64 `json:"bytesPerOp,omitempty"`
	// WireBytesPerOp lifts Metrics["wire-bytes/op"]: the encoded shard
	// payload bytes shipped to cluster workers per run, for benchmarks that
	// report that unit.
	WireBytesPerOp float64 `json:"wireBytesPerOp,omitempty"`
}

// Report is the top-level BENCH.json document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	// Metrics is a flat snapshot parsed from a Prometheus text scrape
	// (-metrics FILE): counter and gauge samples by series name, histograms
	// as their _count and _sum samples (per-bucket lines are skipped — the
	// trajectory cares about totals, not shape). Absent without -metrics.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseProm parses Prometheus text exposition into a name → value map,
// keeping scalar samples (counters, gauges, histogram _count/_sum) and
// skipping comments and bucket lines.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue // labeled samples (histogram buckets) are shape, not totals
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad metric sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// parseLine parses one `go test -bench` output line, reporting ok=false for
// lines that are not benchmark results (headers, PASS, ok, log output).
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	b.AllocsPerOp = b.Metrics["allocs/op"]
	b.BytesPerOp = b.Metrics["B/op"]
	b.WireBytesPerOp = b.Metrics["wire-bytes/op"]
	return b, true
}

// convert reads bench output from r and writes the JSON report to w,
// folding in the metrics snapshot when one was provided.
func convert(r io.Reader, w io.Writer, metrics map[string]float64) error {
	rep := Report{Benchmarks: []Benchmark{}, Metrics: metrics}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func main() {
	metricsPath := flag.String("metrics", "", "Prometheus text scrape to fold into the report's metrics map")
	flag.Parse()
	var metrics map[string]float64
	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		metrics, err = parseProm(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if err := convert(os.Stdin, os.Stdout, metrics); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
