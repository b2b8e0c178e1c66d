package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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

// TestRejectsPageBelowRowSize pins that a page smaller than a DRAM row is
// refused with a one-line error before any run starts, instead of a
// machine constructor's panic.
func TestRejectsPageBelowRowSize(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "array", "-quick", "-pagebytes", "16")
	cmd.Env = append(os.Environ(), "APBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	const want = "apbench: -pagebytes 16: radram: dram: row size 2048 exceeds subarray size 16\n"
	if stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("a table was printed before the error: %q", stdout.String())
	}
}
