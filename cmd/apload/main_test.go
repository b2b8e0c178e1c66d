package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets a test run this binary as apload itself: with
// APLOAD_RUN_MAIN=1 in its environment the test binary executes main.
func TestMain(m *testing.M) {
	if os.Getenv("APLOAD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags pins that each invalid load shape is refused with a
// one-line error before any request is sent — exit status 1 and nothing
// on stdout — instead of a panic, or a smoke run that reports success
// without submitting anything. The address is a closed local port, so a
// run that wrongly starts fails fast.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"RunsNegative", []string{"-n", "-5"}, "apload: -n -5: submit at least 1 run\n"},
		{"RunsZero", []string{"-n", "0"}, "apload: -n 0: submit at least 1 run\n"},
		{"ClientsZero", []string{"-c", "0"}, "apload: -c 0: need at least 1 client\n"},
		{"ZipfNaN", []string{"-zipf", "NaN"}, "apload: -zipf NaN: want a finite skew >= 0\n"},
		{"ZipfNegative", []string{"-zipf", "-1"}, "apload: -zipf -1: want a finite skew >= 0\n"},
		{"ZipfInf", []string{"-zipf", "+Inf"}, "apload: -zipf +Inf: want a finite skew >= 0\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-addr", "http://127.0.0.1:1"}, tc.args...)...)
			cmd.Env = append(os.Environ(), "APLOAD_RUN_MAIN=1")
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
