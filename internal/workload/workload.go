// Package workload generates the deterministic synthetic inputs for the six
// application studies: address books for the database query, grayscale
// images for median filtering, DNA-alphabet sequences for the LCS dynamic
// program, Harwell-Boeing-style sparse matrices and Simplex LPs for the
// matrix study, and MPEG frames with correction matrices for the MMX study.
//
// Everything is seeded: the same seed always produces the same bytes, so
// simulation results are reproducible and conventional/RADram runs of one
// experiment see identical data.
package workload

import (
	"fmt"
	"math/rand"
)

// rng returns the package's deterministic generator for a seed.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ---------------------------------------------------------------------------
// Database: synthetic address book (Section 5.1).

// RecordBytes is the fixed size of one address record. Fields are
// fixed-width, NUL-padded strings, mirroring an unindexed flat-file
// database.
const RecordBytes = 128

// Field offsets and widths within a record.
const (
	FieldLastName  = 0
	LastNameBytes  = 24
	FieldFirstName = 24
	FirstNameBytes = 16
	FieldStreet    = 40
	StreetBytes    = 40
	FieldCity      = 80
	CityBytes      = 24
	FieldState     = 104
	StateBytes     = 8
	FieldPhone     = 112
	PhoneBytes     = 16
)

var lastNames = []string{
	"smith", "johnson", "chong", "oskin", "sherwood", "garcia", "kim",
	"patel", "nguyen", "mueller", "rossi", "tanaka", "silva", "kumar",
	"brown", "davis", "wilson", "moore", "taylor", "anderson", "thomas",
	"lee", "martin", "clark", "walker", "hall", "young", "allen", "wright",
	"scott", "green", "baker", "adams", "nelson", "hill", "campbell",
}

var firstNames = []string{
	"mary", "james", "linda", "robert", "maria", "david", "susan", "wei",
	"ana", "juan", "emma", "noah", "olivia", "liam", "fred", "mark", "tim",
}

var streets = []string{
	"main st", "oak ave", "maple dr", "shields ave", "russell blvd",
	"anderson rd", "sycamore ln", "college park", "third st", "b street",
}

var cities = []string{
	"davis", "sacramento", "berkeley", "palo alto", "seattle", "austin",
	"boston", "portland", "chicago", "denver", "ann arbor", "ithaca",
}

var states = []string{"ca", "wa", "tx", "ma", "or", "il", "co", "mi", "ny"}

// AddressBook builds n records into a flat byte image.
func AddressBook(seed int64, n int) []byte {
	r := rng(seed)
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

// books memoizes AddressBook for the database study and the SMP
// experiment, which draw books from the same seed.
var books Memo[bookKey, []byte]

type bookKey struct {
	seed int64
	n    int
}

// SharedAddressBook is a memoized AddressBook. The returned image is shared:
// treat it as read-only.
func SharedAddressBook(seed int64, n int) []byte {
	return books.Get(bookKey{seed, n}, func() []byte { return AddressBook(seed, n) })
}

func putField(rec []byte, off, width int, s string) {
	field := rec[off : off+width]
	for i := range field {
		field[i] = 0
	}
	copy(field, s)
}

// CountLastName is the reference answer for the database query: exact
// matches of the last-name field, computed directly on the image.
func CountLastName(book []byte, name string) int {
	count := 0
	for off := 0; off+RecordBytes <= len(book); off += RecordBytes {
		if fieldEquals(book[off:off+RecordBytes], FieldLastName, LastNameBytes, name) {
			count++
		}
	}
	return count
}

func fieldEquals(rec []byte, off, width int, s string) bool {
	if len(s) > width {
		return false
	}
	for i := 0; i < width; i++ {
		var want byte
		if i < len(s) {
			want = s[i]
		}
		if rec[off+i] != want {
			return false
		}
	}
	return true
}

// QueryName returns a last name guaranteed to occur in books generated from
// any seed (it is drawn from the generator's table).
func QueryName() string { return "chong" }

// ---------------------------------------------------------------------------
// Median filter: grayscale images of 16-bit pixels (Section 5.1).

// Image is a W x H grayscale image of 16-bit pixels in row-major order.
type Image struct {
	W, H int
	Pix  []uint16
}

// NewImage builds a noisy synthetic image: smooth gradient content plus
// salt-and-pepper noise, the workload median filtering exists for.
func NewImage(seed int64, w, h int) *Image {
	r := rng(seed)
	img := &Image{W: w, H: h, Pix: make([]uint16, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := uint16((x*7 + y*13) % 1024)
			// 5% impulsive noise.
			switch r.Intn(20) {
			case 0:
				v = 0
			case 1:
				v = 65535
			}
			img.Pix[y*w+x] = v
		}
	}
	return img
}

// At returns the pixel at (x, y), clamping coordinates to the border
// (replicate padding, as the filter kernels use).
func (im *Image) At(x, y int) uint16 {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// MedianReference computes the 3x3 median filter directly, as the checkable
// answer for both simulated implementations. Interior pixels take a
// clamp-free path; only the one-pixel border goes through At. It runs the
// 19-exchange network (median9) on every window, while the page circuit
// (apps/median) slides sorted columns, so the check compares two
// independent algorithms.
func (im *Image) MedianReference() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]uint16, im.W*im.H)}
	w := im.W
	var win [9]uint16
	for y := 0; y < im.H; y++ {
		interiorRow := y > 0 && y < im.H-1
		for x := 0; x < w; x++ {
			if interiorRow && x > 0 && x < w-1 {
				i := y*w + x
				win = [9]uint16{
					im.Pix[i-w-1], im.Pix[i-w], im.Pix[i-w+1],
					im.Pix[i-1], im.Pix[i], im.Pix[i+1],
					im.Pix[i+w-1], im.Pix[i+w], im.Pix[i+w+1],
				}
			} else {
				k := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						win[k] = im.At(x+dx, y+dy)
						k++
					}
				}
			}
			out.Pix[y*w+x] = median9(win)
		}
	}
	return out
}

// median9 returns the median of nine values using a fixed comparison
// network (19 compare-exchange steps), the same network the RADram circuit
// implements and close to the minimal hand-coded comparison sequence the
// paper's conventional implementation uses. Each exchange leaves the
// smaller value in its first slot.
func median9(v [9]uint16) uint16 {
	// Paeth's 19-exchange median-of-9 network.
	v[1], v[2] = min(v[1], v[2]), max(v[1], v[2])
	v[4], v[5] = min(v[4], v[5]), max(v[4], v[5])
	v[7], v[8] = min(v[7], v[8]), max(v[7], v[8])
	v[0], v[1] = min(v[0], v[1]), max(v[0], v[1])
	v[3], v[4] = min(v[3], v[4]), max(v[3], v[4])
	v[6], v[7] = min(v[6], v[7]), max(v[6], v[7])
	v[1], v[2] = min(v[1], v[2]), max(v[1], v[2])
	v[4], v[5] = min(v[4], v[5]), max(v[4], v[5])
	v[7], v[8] = min(v[7], v[8]), max(v[7], v[8])
	v[0], v[3] = min(v[0], v[3]), max(v[0], v[3])
	v[5], v[8] = min(v[5], v[8]), max(v[5], v[8])
	v[4], v[7] = min(v[4], v[7]), max(v[4], v[7])
	v[3], v[6] = min(v[3], v[6]), max(v[3], v[6])
	v[1], v[4] = min(v[1], v[4]), max(v[1], v[4])
	v[2], v[5] = min(v[2], v[5]), max(v[2], v[5])
	v[4], v[7] = min(v[4], v[7]), max(v[4], v[7])
	v[4], v[2] = min(v[4], v[2]), max(v[4], v[2])
	v[6], v[4] = min(v[6], v[4]), max(v[6], v[4])
	v[4], v[2] = min(v[4], v[2]), max(v[4], v[2])
	return v[4]
}

// ---------------------------------------------------------------------------
// LCS: DNA-alphabet sequences (Section 5.1).

// DNA generates a length-n sequence over {A, C, G, T}.
func DNA(seed int64, n int) []byte {
	r := rng(seed)
	alphabet := []byte("ACGT")
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[r.Intn(4)]
	}
	return s
}

// RelatedDNA mutates a sequence (substitutions and indels) so LCS finds
// genuine structure, like comparing homologous genes.
func RelatedDNA(seed int64, base []byte, mutationPercent int) []byte {
	r := rng(seed)
	alphabet := []byte("ACGT")
	out := make([]byte, 0, len(base))
	for _, b := range base {
		switch {
		case r.Intn(100) < mutationPercent/3: // delete
		case r.Intn(100) < mutationPercent/3: // insert
			out = append(out, alphabet[r.Intn(4)], b)
		case r.Intn(100) < mutationPercent/3: // substitute
			out = append(out, alphabet[r.Intn(4)])
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, 'A')
	}
	return out
}

// LCSReference computes the LCS length with the standard O(n*m) dynamic
// program, the checkable answer for both implementations.
func LCSReference(a, b []byte) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			switch {
			case a[i-1] == b[j-1]:
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
