package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"activepages/internal/httpmw"
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
		// A zero backoff doubles to zero: a tight POST loop on a shedding
		// daemon, and a status poll that never sleeps.
		{"PollZero", []string{"-poll", "0"}, "apload: -poll 0s: want an interval above 0\n"},
		// Every run not answered from the cache would fail at once.
		{"TimeoutNegative", []string{"-timeout", "-1s"}, "apload: -timeout -1s: want a deadline above 0\n"},
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

// TestTimeoutBoundsShedRetries pins that -timeout bounds a run from its
// first submission attempt: against a daemon that sheds every submission
// with 503, the run fails once the deadline passes, naming the last 503
// body and its request id, and apload exits 1.
func TestTimeoutBoundsShedRetries(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(httpmw.RequestIDHeader, "rid-shed")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer shedding.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", shedding.URL, "-n", "1", "-timeout", "1s")
	cmd.Env = append(os.Environ(), "APLOAD_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("apload -timeout 1s still retrying after %s", time.Since(start).Round(time.Second))
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
	}
	want := `apload: still shed at -timeout 1s: submit: HTTP 503 (request_id=rid-shed): {"error":"queue full"}` + "\n"
	if !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr:\n%s\nwant it to start with\n%s", stderr.String(), want)
	}
}
