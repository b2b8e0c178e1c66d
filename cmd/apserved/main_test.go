package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain lets a test run this binary as apserved itself: with
// APSERVED_RUN_MAIN=1 in its environment the test binary executes main.
func TestMain(m *testing.M) {
	if os.Getenv("APSERVED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNegativeCacheBudget pins that a negative -cachemb is refused
// before the daemon listens, instead of wrapping to a budget of about
// 16 EiB under which the result cache never evicts.
func TestRejectsNegativeCacheBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-cachemb", "-1")
	cmd.Env = append(os.Environ(), "APSERVED_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	if want := "apserved: -cachemb -1: want a budget >= 0 MiB\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}
