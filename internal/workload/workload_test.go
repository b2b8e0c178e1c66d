package workload

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddressBookDeterministic(t *testing.T) {
	a := AddressBook(1, 100)
	b := AddressBook(1, 100)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different books")
	}
	c := AddressBook(2, 100)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical books")
	}
}

func TestAddressBookLayout(t *testing.T) {
	book := AddressBook(1, 10)
	if len(book) != 10*RecordBytes {
		t.Fatalf("book size = %d", len(book))
	}
	// Every record has a NUL-terminated, non-empty last name from the
	// table.
	for r := 0; r < 10; r++ {
		rec := book[r*RecordBytes:]
		name := cString(rec[FieldLastName : FieldLastName+LastNameBytes])
		found := false
		for _, n := range lastNames {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("record %d last name %q not from the table", r, name)
		}
	}
}

func cString(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

func TestCountLastName(t *testing.T) {
	book := AddressBook(99, 2000)
	total := 0
	for _, n := range lastNames {
		total += CountLastName(book, n)
	}
	if total != 2000 {
		t.Fatalf("per-name counts sum to %d, want 2000", total)
	}
	if CountLastName(book, "doesnotexist") != 0 {
		t.Fatal("nonexistent name counted")
	}
	// The guaranteed query name should appear in a book this large.
	if CountLastName(book, QueryName()) == 0 {
		t.Fatalf("query name %q absent from 2000 records", QueryName())
	}
}

func TestFieldEqualsExact(t *testing.T) {
	rec := make([]byte, RecordBytes)
	copy(rec[FieldLastName:], "chong")
	if !fieldEquals(rec, FieldLastName, LastNameBytes, "chong") {
		t.Fatal("exact match failed")
	}
	if fieldEquals(rec, FieldLastName, LastNameBytes, "chon") {
		t.Fatal("prefix matched")
	}
	if fieldEquals(rec, FieldLastName, LastNameBytes, "chongg") {
		t.Fatal("superstring matched")
	}
	long := make([]byte, LastNameBytes+1)
	if fieldEquals(rec, FieldLastName, LastNameBytes, string(long)) {
		t.Fatal("overlong query matched")
	}
}

func TestMedian9MatchesSort(t *testing.T) {
	f := func(vals [9]uint16) bool {
		got := median9(vals)
		s := append([]uint16{}, vals[:]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return got == s[4]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestImageDeterministicAndNoisy(t *testing.T) {
	a := NewImage(5, 64, 64)
	b := NewImage(5, 64, 64)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different images")
		}
	}
	// Impulse noise exists.
	noise := 0
	for _, p := range a.Pix {
		if p == 0 || p == 65535 {
			noise++
		}
	}
	if noise == 0 {
		t.Fatal("no impulse noise in the test image")
	}
}

func TestImageAtClamps(t *testing.T) {
	im := NewImage(1, 4, 4)
	if im.At(-1, -1) != im.At(0, 0) {
		t.Fatal("negative coordinates not clamped")
	}
	if im.At(100, 100) != im.At(3, 3) {
		t.Fatal("overflow coordinates not clamped")
	}
}

func TestMedianReferenceRemovesImpulse(t *testing.T) {
	// A single hot pixel in a flat image disappears under the median.
	im := &Image{W: 5, H: 5, Pix: make([]uint16, 25)}
	for i := range im.Pix {
		im.Pix[i] = 100
	}
	im.Pix[12] = 65535 // center
	out := im.MedianReference()
	if out.Pix[12] != 100 {
		t.Fatalf("median did not remove impulse: %d", out.Pix[12])
	}
}

func TestDNA(t *testing.T) {
	s := DNA(3, 1000)
	if len(s) != 1000 {
		t.Fatal("wrong length")
	}
	for _, c := range s {
		if c != 'A' && c != 'C' && c != 'G' && c != 'T' {
			t.Fatalf("bad symbol %c", c)
		}
	}
}

func TestRelatedDNAPreservesStructure(t *testing.T) {
	base := DNA(3, 500)
	rel := RelatedDNA(4, base, 20)
	lcs := LCSReference(base, rel)
	// A 20%-mutated relative keeps well over half the sequence in common.
	if lcs < 300 {
		t.Fatalf("LCS of related sequences = %d, too low", lcs)
	}
	// But a random pair of unrelated sequences has much less.
	other := DNA(77, 500)
	if unrelated := LCSReference(base, other); unrelated >= lcs {
		t.Fatalf("unrelated LCS %d >= related LCS %d", unrelated, lcs)
	}
}

func TestLCSReferenceKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 0},
		{"ABCBDAB", "BDCABA", 4},
		{"AGGTAB", "GXTXAYB", 4},
		{"AAAA", "AAAA", 4},
		{"ABC", "DEF", 0},
	}
	for _, c := range cases {
		if got := LCSReference([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("LCS(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: LCS is symmetric and bounded by min length.
func TestLCSPropertyBounds(t *testing.T) {
	f := func(sa, sb uint16) bool {
		a := DNA(int64(sa), int(sa%64)+1)
		b := DNA(int64(sb)+1000, int(sb%64)+1)
		l := LCSReference(a, b)
		if l != LCSReference(b, a) {
			return false
		}
		return l >= 0 && l <= min(len(a), len(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
