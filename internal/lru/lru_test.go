package lru

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newSized returns a cache whose values are their own size.
func newSized(budget uint64) *Cache[string, uint64] {
	return New[string](budget, func(v uint64) uint64 { return v })
}

// keys lists the cache's keys from most to least recently touched.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []K
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func wantKeys(t *testing.T, c *Cache[string, uint64], want ...string) {
	t.Helper()
	if got := keys(c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("keys by recency = %v, want %v", got, want)
	}
}

// fillNow is a fill that returns v at once.
func fillNow(v uint64) func() (uint64, error) {
	return func() (uint64, error) { return v, nil }
}

// waitFront blocks until key is the most recently touched entry: a Do of
// key has found it in the cache.
func waitFront(c *Cache[string, uint64], key string) {
	for {
		c.mu.Lock()
		front := c.root.next != &c.root && c.root.next.key == key
		c.mu.Unlock()
		if front {
			return
		}
		runtime.Gosched()
	}
}

// TestEvictsLeastRecentlyUsed checks the budget accounting and that the
// least recently touched entries go first, as many as the budget needs.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := newSized(100)
	c.Add("a", 30)
	c.Add("b", 30)
	c.Add("c", 30)
	if c.Len() != 3 || c.Bytes() != 90 || c.Evicted() != 0 {
		t.Fatalf("Len/Bytes/Evicted = %d/%d/%d, want 3/90/0", c.Len(), c.Bytes(), c.Evicted())
	}
	c.Add("d", 50) // 140 bytes: a, then b, must go
	wantKeys(t, c, "d", "c")
	if c.Len() != 2 || c.Bytes() != 80 || c.Evicted() != 2 {
		t.Errorf("Len/Bytes/Evicted = %d/%d/%d, want 2/80/2", c.Len(), c.Bytes(), c.Evicted())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction")
	}
}

// TestRecencyBumps checks that Get, a repeated Add and a Do hit each make
// their key the most recently used, so the next eviction spares it.
func TestRecencyBumps(t *testing.T) {
	for name, touch := range map[string]func(c *Cache[string, uint64]){
		"Get":   func(c *Cache[string, uint64]) { c.Get("a") },
		"Add":   func(c *Cache[string, uint64]) { c.Add("a", 10) },
		"DoHit": func(c *Cache[string, uint64]) { c.Do("a", fillNow(10)) },
	} {
		t.Run(name, func(t *testing.T) {
			c := newSized(30)
			c.Add("a", 10)
			c.Add("b", 10)
			c.Add("c", 10)
			touch(c)
			c.Add("d", 10)
			wantKeys(t, c, "d", "a", "c")
		})
	}
}

// TestKeepsEntryJustStored checks that an entry larger than the whole
// budget is still stored, evicting everything else.
func TestKeepsEntryJustStored(t *testing.T) {
	c := newSized(100)
	c.Add("a", 40)
	c.Add("b", 40)
	if v, hit, err := c.Do("big", fillNow(500)); v != 500 || hit || err != nil {
		t.Fatalf("Do(big) = %d, %v, %v", v, hit, err)
	}
	wantKeys(t, c, "big")
	if c.Bytes() != 500 || c.Evicted() != 2 {
		t.Errorf("Bytes/Evicted = %d/%d, want 500/2", c.Bytes(), c.Evicted())
	}
	if v, ok := c.Get("big"); !ok || v != 500 {
		t.Errorf("Get(big) = %d, %v", v, ok)
	}
}

// TestNeverEvictsFillInFlight checks that a fill still running is neither
// evicted nor charged, and that it counts as touched when it started.
func TestNeverEvictsFillInFlight(t *testing.T) {
	c := newSized(100)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("slow", func() (uint64, error) { <-release; return 20, nil })
	}()
	for c.Len() == 0 {
		runtime.Gosched()
	}
	if _, ok := c.Get("slow"); ok {
		t.Error("Get returned a fill still in flight")
	}
	c.Add("a", 60)
	c.Add("b", 60) // over budget: a goes, the older fill in flight stays
	wantKeys(t, c, "b", "slow")
	if c.Bytes() != 60 {
		t.Errorf("Bytes = %d with a fill in flight, want 60", c.Bytes())
	}
	close(release)
	<-done
	// Storing the fill's 20 bytes fits the budget: nothing more goes.
	wantKeys(t, c, "b", "slow")
	if c.Bytes() != 80 || c.Evicted() != 1 {
		t.Errorf("Bytes/Evicted = %d/%d, want 80/1", c.Bytes(), c.Evicted())
	}
}

// TestAddFirstWriterWins checks that a repeated Add keeps the first value
// and its charge, and evicts nothing even over budget.
func TestAddFirstWriterWins(t *testing.T) {
	c := newSized(100)
	c.Add("a", 60)
	c.Add("b", 30)
	c.Add("a", 90)
	if v, _ := c.Get("a"); v != 60 {
		t.Errorf("Get(a) = %d, want the first value 60", v)
	}
	if c.Len() != 2 || c.Bytes() != 90 || c.Evicted() != 0 {
		t.Errorf("Len/Bytes/Evicted = %d/%d/%d, want 2/90/0", c.Len(), c.Bytes(), c.Evicted())
	}
	if v, hit, _ := c.Do("a", fillNow(1)); v != 60 || !hit {
		t.Errorf("Do(a) = %d, %v, want the stored 60 as a hit", v, hit)
	}
}

// TestDoSingleflight has n goroutines Do one key while its fill is held
// open: the fill runs once and every other caller gets its value as a hit.
func TestDoSingleflight(t *testing.T) {
	const n = 16
	c := newSized(1 << 10)
	release := make(chan struct{})
	var fills, hits atomic.Int64
	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		v, hit, err := c.Do("k", func() (uint64, error) {
			fills.Add(1)
			<-release
			return 7, nil
		})
		if v != 7 || err != nil {
			t.Errorf("Do = %d, %v", v, err)
		}
		if hit {
			hits.Add(1)
		}
	}
	wg.Add(n)
	go do()
	for c.Len() == 0 {
		runtime.Gosched()
	}
	c.Add("other", 1)
	for i := 1; i < n; i++ {
		go do()
	}
	waitFront(c, "k") // at least one caller is waiting on the fill
	close(release)
	wg.Wait()
	if fills.Load() != 1 || hits.Load() != n-1 {
		t.Errorf("fills = %d, hits = %d, want 1 and %d", fills.Load(), hits.Load(), n-1)
	}
}

// TestFillErrorReachesWaiters checks that a fill error is returned to a
// caller waiting on that fill, is not stored, and that the next Do of the
// key fills again.
func TestFillErrorReachesWaiters(t *testing.T) {
	c := newSized(100)
	boom := errors.New("boom")
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (uint64, error) { <-release; return 0, boom })
		first <- err
	}()
	for c.Len() == 0 {
		runtime.Gosched()
	}
	c.Add("other", 1)
	waiter := make(chan error, 1)
	go func() {
		_, hit, err := c.Do("k", func() (uint64, error) {
			t.Error("a waiter on an in-flight fill filled again")
			return 0, nil
		})
		if !hit {
			t.Error("a waiter on an in-flight fill reported a miss")
		}
		waiter <- err
	}()
	waitFront(c, "k")
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Errorf("filling caller got %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Errorf("waiter got %v, want boom", err)
	}
	if c.Len() != 1 || c.Bytes() != 1 {
		t.Errorf("Len/Bytes = %d/%d after a failed fill, want 1/1", c.Len(), c.Bytes())
	}
	if v, hit, err := c.Do("k", fillNow(5)); v != 5 || hit || err != nil {
		t.Errorf("Do after a failed fill = %d, %v, %v, want a fresh fill", v, hit, err)
	}
}

// TestFillPanicReleasesWaiters checks that a fill that panics (as a
// canceled simulation does) still releases the callers waiting on it with
// an error, re-raises in the filling caller, and leaves the key to be
// filled again.
func TestFillPanicReleasesWaiters(t *testing.T) {
	c := newSized(100)
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (uint64, error) { <-release; panic("canceled") })
	}()
	for c.Len() == 0 {
		runtime.Gosched()
	}
	c.Add("other", 1)
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", fillNow(1))
		waiter <- err
	}()
	waitFront(c, "k")
	close(release)
	if v := <-recovered; v != "canceled" {
		t.Errorf("filling caller recovered %v, want the fill's panic", v)
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, errFillPanicked) {
			t.Errorf("waiter got %v, want errFillPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked on a fill that panicked")
	}
	if v, hit, err := c.Do("k", fillNow(5)); v != 5 || hit || err != nil {
		t.Errorf("Do after a panicked fill = %d, %v, %v, want a fresh fill", v, hit, err)
	}
}
