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

// TestRejectsPageAboveCap pins the page-size ceiling: a page above the
// paper's 512 KiB is refused with a one-line error before any run starts,
// instead of a fatal out-of-memory error partway through the sweep.
func TestRejectsPageAboveCap(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "array", "-quick", "-pagebytes", "1099511627776")
	cmd.Env = append(os.Environ(), "APBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	const want = "apbench: -pagebytes 1099511627776: radram: core: page size 1099511627776 exceeds the paper's 524288-byte page\n"
	if stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("a table was printed before the error: %q", stdout.String())
	}
}

// TestRejectsPageBelowFloor pins the page-size floor: a 4 KiB page holds a
// DRAM row but not every benchmark's page layout (dynamic-prog overruns
// it), so it is refused with a one-line error before any run starts,
// instead of a run's panic and stack trace partway through the sweep.
func TestRejectsPageBelowFloor(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "all", "-quick", "-pagebytes", "4096")
	cmd.Env = append(os.Environ(), "APBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	const want = "apbench: -pagebytes 4096: radram: core: page size 4096 is below the 8192-byte minimum every benchmark fits\n"
	if stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("a table was printed before the error: %q", stdout.String())
	}
}
