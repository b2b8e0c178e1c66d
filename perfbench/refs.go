package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"activepages/internal/report"
	"activepages/internal/serve"
)

// env locates everything a run reads and writes, all inside the checkout
// the benchmark runs from.
type env struct {
	root     string // repository root
	out      string // build and scratch outputs (.bench_build)
	apbench  string
	aprouted string
}

func newEnv(root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: abs, out: filepath.Join(abs, ".bench_build")}
	e.apbench = filepath.Join(e.out, "bin", "apbench")
	e.aprouted = filepath.Join(e.out, "bin", "aprouted")
	for _, p := range []string{e.apbench, e.aprouted} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("missing %s (run through perfbench/run.sh from the repository root): %w", p, err)
		}
	}
	return e, nil
}

func (e *env) refPath(name string) string { return filepath.Join(e.root, "perfbench", "ref", name) }

// sweepRef is the expected output of one `apbench -experiment all -jobs 1
// -json` sweep: the rendered tables and the metrics snapshot after the
// marker line.
type sweepRef struct {
	tables  []byte
	metrics []byte
}

// sweepRefFiles names the reference files of a sweep mode. The quick
// tables are the repository's own CI gate, read-only; everything else
// lives with the benchmark.
func (e *env) sweepRefFiles(quick bool) (tables, metrics string) {
	if quick {
		return filepath.Join(e.root, "ci", "stdout-all-quick.txt"), e.refPath("metrics-all-quick.json")
	}
	return e.refPath("stdout-all-full.txt"), e.refPath("metrics-all-full.json")
}

func (e *env) loadSweepRef(quick bool) (sweepRef, error) {
	tp, mp := e.sweepRefFiles(quick)
	t, err := os.ReadFile(tp)
	if err != nil {
		return sweepRef{}, err
	}
	m, err := os.ReadFile(mp)
	if err != nil {
		return sweepRef{}, err
	}
	return sweepRef{tables: t, metrics: m}, nil
}

// splitSweep separates apbench -json stdout into its tables and the
// metrics snapshot that follows the marker line.
func splitSweep(out []byte) (tables, metrics []byte, ok bool) {
	sep := []byte("\n" + report.MetricsMarker + "\n")
	i := bytes.Index(out, sep)
	if i < 0 {
		return out, nil, false
	}
	return out[:i], out[i+len(sep):], true
}

// loadSpecRefs reads the expected sha256 of every fleet spec's output,
// keyed by specKey.
func (e *env) loadSpecRefs() (map[string]string, error) {
	b, err := os.ReadFile(e.refPath("specs.json"))
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", e.refPath("specs.json"), err)
	}
	return m, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// genRefs regenerates the benchmark's reference files from batch apbench
// runs of the current tree: the full sweep's tables and both sweeps'
// metrics snapshots, and the output digest of every fleet spec. The quick
// tables are checked against ci/stdout-all-quick.txt, never written.
// Regenerate only when a change is meant to alter simulated output.
func genRefs(ctx context.Context, e *env) error {
	if err := os.MkdirAll(e.refPath(""), 0o755); err != nil {
		return err
	}
	for _, quick := range []bool{true, false} {
		args := []string{"-experiment", "all", "-jobs", "1", "-json"}
		if quick {
			args = append(args, "-quick")
		}
		out, err := exec.CommandContext(ctx, e.apbench, args...).Output()
		if err != nil {
			return fmt.Errorf("apbench %v: %w", args, err)
		}
		tables, metrics, ok := splitSweep(out)
		if !ok {
			return fmt.Errorf("apbench %v: no metrics marker", args)
		}
		tp, mp := e.sweepRefFiles(quick)
		if quick {
			want, err := os.ReadFile(tp)
			if err != nil {
				return err
			}
			if !bytes.Equal(tables, want) {
				return fmt.Errorf("quick sweep tables differ from %s; fix the tree, not the reference", tp)
			}
		} else if err := os.WriteFile(tp, tables, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(mp, metrics, 0o644); err != nil {
			return err
		}
	}

	var specs []serve.Request
	specs = append(specs, hotSpecs()...)
	for _, g := range freshGroups() {
		specs = append(specs, g...)
	}
	digests := make(map[string]string, len(specs))
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, r := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(r serve.Request) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			out, err := exec.CommandContext(ctx, e.apbench, apbenchArgs(r)...).Output()
			fmt.Fprintf(os.Stderr, "perfbench: %-70s %6.0f ms\n", specKey(r), ms(time.Since(start)))
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("apbench %v: %w", apbenchArgs(r), err)
			}
			digests[specKey(r)] = sha(out)
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.refPath("specs.json"), append(b, '\n'), 0o644)
}
