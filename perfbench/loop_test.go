package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"activepages/internal/serve"
)

// fakeFleet answers every submission as a cache hit echoing the request,
// after stalling the first one for stall.
func fakeFleet(t *testing.T, stall time.Duration) (*fleetProc, *atomic.Int64) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set(serve.CacheResultHeader, "hit")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "r1", "state": "done", "request": req})
	}))
	t.Cleanup(srv.Close)
	return &fleetProc{base: srv.URL, client: newClient(1)}, &n
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	f, served := fakeFleet(t, stall)
	defer f.client.CloseIdleConnections()
	plan := hotPlan(1, 0, 20)
	rate := 100.0 // one request due every 10ms
	outs := f.openLoop(context.Background(), plan, rate, 1, nil, nil, "t")
	if int(served.Load()) != len(plan) {
		t.Fatalf("served %d of %d requests", served.Load(), len(plan))
	}
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if want := outs[0].due.Add(time.Duration(i) * 10 * time.Millisecond); !o.due.Equal(want) {
			t.Fatalf("request %d due %v after the first, want %v", i, o.due.Sub(outs[0].due), want.Sub(outs[0].due))
		}
	}
	// With one connection, request 1 is due 10ms in but cannot be sent
	// until the stalled request 0 returns at ~200ms: its latency counts
	// the wait, where a closed loop would have timed only its own round
	// trip.
	if got := outs[1].latency; got < stall-20*time.Millisecond {
		t.Errorf("request 1 latency %v, want >= ~%v (queued behind the stall)", got, stall-10*time.Millisecond)
	}
	// The generator itself never waited for the stall: it issued every
	// request on schedule.
	for i, o := range outs {
		if o.lag > 50*time.Millisecond {
			t.Errorf("request %d issued %v late", i, o.lag)
		}
	}
	if got := outs[len(outs)-1].latency; got > stall {
		t.Errorf("last request latency %v: the backlog should have drained by then", got)
	}
}

func TestSubmitRejectsAWrongEcho(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.CacheResultHeader, "hit")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": "r1", "state": "done",
			"request": serve.Request{Experiment: "array", Quick: true, PageBytes: 16384}})
	}))
	defer srv.Close()
	f := &fleetProc{base: srv.URL, client: newClient(1)}
	defer f.client.CloseIdleConnections()
	r := hotSpecs()[1]
	if _, _, err := f.submit(context.Background(), planned{req: r, body: mustJSON(r)}, "x"); err == nil {
		t.Error("a reply naming another spec was accepted")
	}
}
