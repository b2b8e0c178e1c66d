package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run this binary as aprouted itself: with
// APROUTED_RUN_MAIN=1 in its environment the test binary executes main.
func TestMain(m *testing.M) {
	if os.Getenv("APROUTED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAddrInUseFailsBeforeSpawning pins that aprouted binds -addr before it
// spawns a shard: a shard binds an ephemeral port, so spawning first could
// let a shard take -addr and answer the router's health checks.
func TestAddrInUseFailsBeforeSpawning(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	cmd := exec.Command(os.Args[0], "-addr", addr, "-spawn", "2", "-workers", "1", "-jobs", "1")
	cmd.Env = append(os.Environ(), "APROUTED_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	log := stderr.String()
	if want := "aprouted: listen tcp " + addr + ": bind: address already in use\n"; !strings.HasSuffix(log, want) {
		t.Errorf("stderr does not end with %q:\n%s", want, log)
	}
	if strings.Contains(log, "shard spawned") {
		t.Errorf("a shard was spawned before -addr was bound:\n%s", log)
	}
}

// TestRejectsBadFlags pins that each value aprouted would otherwise
// replace or ignore silently is refused with a one-line error before any
// shard is spawned — exit status 1 and nothing on stdout: a negative
// -cachemb would wrap to a budget of about 16 EiB under which the shards'
// result caches never evict, a -healthinterval <= 0 became 2 s, a
// negative -spawn was ignored, and a value <= 0 of -workers, -queue or
// -jobs became the spawned shards' default.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"CacheNegative", []string{"-cachemb", "-1"}, "aprouted: -cachemb -1: want a budget >= 0 MiB\n"},
		{"SpawnNegative", []string{"-spawn", "-1"}, "aprouted: -spawn -1: want 0 or more shards\n"},
		{"HealthIntervalZero", []string{"-healthinterval", "0"}, "aprouted: -healthinterval 0s: want a period above 0\n"},
		{"WorkersZero", []string{"-workers", "0"}, "aprouted: -workers 0: want at least 1 worker per shard\n"},
		{"QueueZero", []string{"-queue", "0"}, "aprouted: -queue 0: want a queue depth of at least 1\n"},
		{"JobsNegative", []string{"-jobs", "-2"}, "aprouted: -jobs -2: want at least 1 simulation worker per run\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-spawn", "1", "-workers", "1", "-jobs", "1"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), "APROUTED_RUN_MAIN=1")
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
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
		})
	}
}
