package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run this binary as apsim itself: with
// APSIM_RUN_MAIN=1 in its environment the test binary executes main.
func TestMain(m *testing.M) {
	if os.Getenv("APSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags pins that each invalid machine or problem-size flag
// is refused with a one-line error before anything runs — exit status 1
// and nothing on stdout — instead of a constructor's panic, an
// out-of-range allocation, or a run that quietly measures one record.
func TestRejectsBadFlags(t *testing.T) {
	const pagesErr = "problem size must be above 0 and at most 256 pages\n"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"L1DZero", []string{"-l1d", "0"}, "apsim: radram: cache L1D: size 0 not a power of two\n"},
		{"L1DNotPowerOfTwo", []string{"-l1d", "3000"}, "apsim: radram: cache L1D: size 3000 not a power of two\n"},
		{"L2TooSmall", []string{"-l2", "1"}, "apsim: radram: cache L2: size 1 too small for 4 ways of 32-byte lines\n"},
		{"L2Huge", []string{"-l2", "4611686018427387904"},
			"apsim: radram: cache L2: size 4611686018427387904 exceeds the paper's largest cache, 4194304 bytes\n"},
		{"PageNotPowerOfTwo", []string{"-pagebytes", "3"}, "apsim: radram: dram: subarray size 3 not a power of two\n"},
		{"PagesHuge", []string{"-pages", "1e12"}, "apsim: -pages 1e+12: " + pagesErr},
		{"PagesNaN", []string{"-pages", "NaN"}, "apsim: -pages NaN: " + pagesErr},
		{"PagesZero", []string{"-pages", "0"}, "apsim: -pages 0: " + pagesErr},
		{"PagesNegative", []string{"-pages", "-1"}, "apsim: -pages -1: " + pagesErr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "APSIM_RUN_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			if stderr.String() != tc.want {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("output was printed before the error: %q", stdout.String())
			}
		})
	}
}

// TestTraceLeavesOutputUnchanged runs one pair with and without -trace.
// Tracing turns folding and stream batching off, so equal stdout checks
// the scalar path against the batched one end to end. The file must be a
// Chrome trace document with both machines as processes.
func TestTraceLeavesOutputUnchanged(t *testing.T) {
	apsim := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "APSIM_RUN_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("apsim %q: %v", args, err)
		}
		return out
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-app", "database", "-pages", "2"}
	plain := apsim(args...)
	if traced := apsim(append(args, "-trace", path)...); !bytes.Equal(traced, plain) {
		t.Errorf("stdout with -trace:\n%s\nwithout:\n%s", traced, plain)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	procs := map[int]any{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args["name"]
		}
	}
	if procs[1] != "conventional" || procs[2] != "radram" || len(doc.TraceEvents) <= len(procs) {
		t.Errorf("trace processes %v over %d events, want conventional (1) and radram (2) with events",
			procs, len(doc.TraceEvents))
	}
}
