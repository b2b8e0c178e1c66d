package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoGeneratesOncePerKey: concurrent Gets of one key run gen once and
// all see the same value.
func TestMemoGeneratesOncePerKey(t *testing.T) {
	var m Memo[int, *[]byte]
	var calls atomic.Int32
	gen := func() *[]byte {
		calls.Add(1)
		b := AddressBook(1, 64)
		return &b
	}
	const n = 8
	got := make([]*[]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = m.Get(7, gen)
		}(i)
	}
	close(start)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("gen ran %d times, want 1", c)
	}
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different value", i)
		}
	}
}

// TestMemoKeysGenerateIndependently: while one key's gen is blocked, a Get
// of another key still returns.
func TestMemoKeysGenerateIndependently(t *testing.T) {
	var m Memo[int, int]
	blocked, release := make(chan struct{}), make(chan struct{})
	first, second := make(chan int, 1), make(chan int, 1)
	go func() {
		first <- m.Get(1, func() int {
			close(blocked)
			<-release
			return 1
		})
	}()
	<-blocked
	go func() { second <- m.Get(2, func() int { return 2 }) }()
	select {
	case v := <-second:
		if v != 2 {
			t.Errorf("Get(2) = %d, want 2", v)
		}
	case <-time.After(10 * time.Second):
		t.Error("Get(2) waited for key 1's generation")
	}
	close(release)
	if v := <-first; v != 1 {
		t.Errorf("Get(1) = %d, want 1", v)
	}
}

func TestMemoRangeVisitsEveryKey(t *testing.T) {
	var m Memo[int, int]
	for k := 0; k < 5; k++ {
		m.Get(k, func() int { return k * k })
	}
	seen := map[int]int{}
	m.Range(func(k, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("Range visited %d keys, want 5", len(seen))
	}
	for k, v := range seen {
		if v != k*k {
			t.Errorf("key %d = %d, want %d", k, v, k*k)
		}
	}
}
