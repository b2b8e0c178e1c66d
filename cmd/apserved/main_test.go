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

// TestRejectsBadFlags pins that each value the daemon would otherwise
// replace or misuse silently is refused with a one-line error before it
// listens — exit status 1 and nothing on stdout: a negative -cachemb
// would wrap to a budget of about 16 EiB under which the result cache
// never evicts, a value <= 0 of -workers, -queue, -runtimeout, -jobs or
// -retain would become a default (-retain 0 kept 256 runs), and an
// instance id with a '/' gave runs ids their own GET answered 404.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"CacheNegative", []string{"-cachemb", "-1"}, "apserved: -cachemb -1: want a budget >= 0 MiB\n"},
		{"WorkersZero", []string{"-workers", "0"}, "apserved: -workers 0: want at least 1 worker\n"},
		{"QueueNegative", []string{"-queue", "-1"}, "apserved: -queue -1: want a queue depth of at least 1\n"},
		{"RunTimeoutZero", []string{"-runtimeout", "0"}, "apserved: -runtimeout 0s: want a budget above 0\n"},
		{"JobsZero", []string{"-jobs", "0"}, "apserved: -jobs 0: want at least 1 simulation worker per run\n"},
		{"RetainZero", []string{"-retain", "0"}, "apserved: -retain 0: want at least 1 retained run\n"},
		{"InstanceSlash", []string{"-instance", "a/b"},
			"apserved: -instance \"a/b\": use only letters, digits, '.', '_' and '-'\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
			cmd.Env = append(os.Environ(), "APSERVED_RUN_MAIN=1")
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
