package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// formattedBook is the address-book generator as it was written with
// fmt.Sprintf, one book per call: the byte-for-byte reference for the
// strconv formatting and for books served as prefixes of one stream.
func formattedBook(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	buf := make([]byte, n*RecordBytes)
	for i := 0; i < n; i++ {
		rec := buf[i*RecordBytes : (i+1)*RecordBytes]
		putField(rec, FieldLastName, LastNameBytes, lastNames[r.Intn(len(lastNames))])
		putField(rec, FieldFirstName, FirstNameBytes, firstNames[r.Intn(len(firstNames))])
		putField(rec, FieldStreet, StreetBytes,
			fmt.Sprintf("%d %s", 1+r.Intn(9999), streets[r.Intn(len(streets))]))
		putField(rec, FieldCity, CityBytes, cities[r.Intn(len(cities))])
		putField(rec, FieldState, StateBytes, states[r.Intn(len(states))])
		putField(rec, FieldPhone, PhoneBytes,
			fmt.Sprintf("%03d-%03d-%04d", 200+r.Intn(800), r.Intn(1000), r.Intn(10000)))
	}
	return buf
}

// bookSizes are the record counts the stream tests request, unsorted.
var bookSizes = []int{509, 1, 4094, 2000, 0, 130, 8188, 3}

// TestBookStreamMatchesFormattedBook serves every size from one fresh
// stream per order — ascending, descending, and the unsorted list — and
// requires each book to equal formattedBook's, byte for byte. Views served
// before the stream grew or moved must keep their bytes too, and the
// stream may hold at most twice the largest book served.
func TestBookStreamMatchesFormattedBook(t *testing.T) {
	const seed = 1998
	asc := slices.Clone(bookSizes)
	slices.Sort(asc)
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	orders := map[string][]int{"ascending": asc, "descending": desc, "unsorted": bookSizes}
	for name, sizes := range orders {
		t.Run(name, func(t *testing.T) {
			s := &bookStream{r: rng(seed)}
			served := map[int][]byte{}
			largest := 0
			for _, n := range sizes {
				served[n] = s.book(n)
				largest = max(largest, n)
				if c := cap(s.buf); c > 2*largest*RecordBytes {
					t.Fatalf("after serving %d records the stream holds %d bytes, over twice the largest book's %d",
						n, c, largest*RecordBytes)
				}
			}
			for n, got := range served {
				if !bytes.Equal(got, formattedBook(seed, n)) {
					t.Errorf("book of %d records differs from the formatted generator", n)
				}
			}
		})
	}
}

// TestSharedAddressBookConcurrent requests every size of a few seeds from
// concurrent goroutines, the way parallel sweep workers share a stream;
// -race checks that growing a stream never races a view being read.
func TestSharedAddressBookConcurrent(t *testing.T) {
	seeds := []int64{-7, 12345}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range bookSizes {
				n := bookSizes[(i+g)%len(bookSizes)]
				seed := seeds[g%len(seeds)]
				got := SharedAddressBook(seed, n)
				if !bytes.Equal(got, formattedBook(seed, n)) {
					t.Errorf("seed %d: shared book of %d records differs from the formatted generator", seed, n)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendPadded pins appendPadded to the %0*d verb.
func TestAppendPadded(t *testing.T) {
	for _, width := range []int{1, 3, 4} {
		for _, v := range []int{0, 7, 10, 99, 100, 999, 1000, 9999, 12345} {
			if got, want := string(appendPadded(nil, v, width)), fmt.Sprintf("%0*d", width, v); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}
