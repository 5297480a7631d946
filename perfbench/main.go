// Command perfbench is the repository's end-to-end benchmark. It runs one
// RFID workload through the engine's public entry points for a fixed wall
// budget, checks every repetition's output against a reference that is not
// the configuration being timed, and prints one JSON result line.
//
//	go run . -workload epc-line -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run (see trace.go and
// layers.go). README.md records why each workload exists.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying number of the result line.
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
	// Unbounded holds measured figures kept out of the result line; they
	// go to the run record only.
	Unbounded map[string]metric `json:"-"`
}

// fingerprint identifies the machine, toolchain, source and input of a run.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "wall budget of the measured repetitions")
	traceMode := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and per-run records")
	root := fs.String("root", ".", "repository checkout the benchmark was built from")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	fp := fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf(*root), Source: sourceDigest(*root),
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traceMode,
	}
	outRoot = *outDir
	opts := runOpts{seed: *seed, budget: time.Duration(*seconds) * time.Second, scale: fullScale,
		outDir: *outDir, minCalls: minCalls}
	var (
		res result
		err error
	)
	if *traceMode == 0 {
		res, _, err = runEndToEnd(wl, opts)
	} else {
		res, _, err = runTraced(wl, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := writeRecord(*outDir, fp, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

// writeRecord appends the run's fingerprint and result to runs.jsonl in the
// output directory, so every figure stays attributable to its machine,
// source and seed.
func writeRecord(dir string, fp fingerprint, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec, err := json.Marshal(struct {
		Fingerprint fingerprint       `json:"fingerprint"`
		Result      result            `json:"result"`
		Unbounded   map[string]metric `json:"unbounded,omitempty"`
		At          string            `json:"at"`
	}{fp, res, res.Unbounded, time.Now().UTC().Format(time.RFC3339)})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf resolves HEAD from a .git directory inside root, without running
// git; a checkout exported without history reports "none" and relies on the
// source digest instead.
func commitOf(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == name {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (skipping hidden
// and build directories) in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
