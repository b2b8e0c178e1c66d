package main

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
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
