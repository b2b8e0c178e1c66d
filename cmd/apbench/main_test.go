package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run this binary as apbench itself: with
// APBENCH_RUN_MAIN=1 in its environment the test binary executes main.
func TestMain(m *testing.M) {
	if os.Getenv("APBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags pins that each invalid flag value is refused with a
// one-line error before any run starts — exit status 1 and nothing on
// stdout — instead of a constructor's panic, an out-of-memory error or a
// run that quietly measures something else.
func TestRejectsBadFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	const pagesErr = "problem size must be above 0 and at most 256 pages\n"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		// A page smaller than a DRAM row.
		{"PageBelowRowSize", []string{"-experiment", "array", "-quick", "-pagebytes", "16"},
			"apbench: -pagebytes 16: radram: dram: row size 2048 exceeds subarray size 16\n"},
		// A 4 KiB page holds a DRAM row but not every benchmark's page
		// layout: dynamic-prog overruns it.
		{"PageBelowFloor", []string{"-experiment", "all", "-quick", "-pagebytes", "4096"},
			"apbench: -pagebytes 4096: radram: core: page size 4096 is below the 8192-byte minimum every benchmark fits\n"},
		// Above the paper's 512 KiB page the sweep runs out of memory.
		{"PageAboveCap", []string{"-experiment", "array", "-quick", "-pagebytes", "1099511627776"},
			"apbench: -pagebytes 1099511627776: radram: core: page size 1099511627776 exceeds the paper's 524288-byte page\n"},
		{"TracePagesHuge", []string{"-experiment", "table2", "-trace", trace, "-tracepages", "1e12"},
			"apbench: -tracepages 1e+12: " + pagesErr},
		{"TracePagesNaN", []string{"-experiment", "table2", "-trace", trace, "-tracepages", "NaN"},
			"apbench: -tracepages NaN: " + pagesErr},
		{"TracePagesZero", []string{"-experiment", "table2", "-trace", trace, "-tracepages", "0"},
			"apbench: -tracepages 0: " + pagesErr},
		{"TracePagesNegative", []string{"-experiment", "table2", "-trace", trace, "-tracepages", "-1"},
			"apbench: -tracepages -1: " + pagesErr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "APBENCH_RUN_MAIN=1")
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
