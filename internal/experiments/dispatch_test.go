package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activepages/internal/tabler"
)

func sampleFigure() *tabler.Figure {
	f := tabler.NewFigure("sample", "x", "y")
	f.X = []float64{1, 2}
	f.Add("series", []float64{3, 4})
	return f
}

func TestWriteCSVCreatesParentDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested")
	if err := writeCSV(dir, "fig", sampleFigure()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "series") {
		t.Fatalf("CSV missing series column:\n%s", data)
	}
}

func TestWriteCSVEmptyDirIsNoop(t *testing.T) {
	if err := writeCSV("", "fig", sampleFigure()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVReportsWriteError(t *testing.T) {
	// A regular file where the directory should be makes MkdirAll fail.
	base := t.TempDir()
	blocker := filepath.Join(base, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := writeCSV(filepath.Join(blocker, "sub"), "fig", sampleFigure())
	if err == nil {
		t.Fatal("expected an error when the CSV directory cannot be created")
	}
	if !strings.Contains(err.Error(), "fig.csv") {
		t.Fatalf("error should name the target file, got: %v", err)
	}
}

// TestCheck pins what Check accepts and the message of each refusal.
// Accepting a RADram pair must cost no allocation: the router and each
// shard check every submission they decode, and the hot specs all run on
// RADram.
func TestCheck(t *testing.T) {
	var accepted [][2]string
	for _, name := range append([]string{"all", "backends", "array", "median-total"}, All...) {
		accepted = append(accepted, [2]string{name, ""})
	}
	accepted = append(accepted,
		[2]string{"array", "simdram"}, [2]string{"median-total", "all"},
		[2]string{"fig9", "simdram"}, [2]string{"all", "all"},
		[2]string{"backends", "simdram"}, [2]string{"mpeg-mmx", "radram"})
	for _, c := range accepted {
		if err := Check(c[0], c[1]); err != nil {
			t.Errorf("Check(%q, %q) = %v, want nil", c[0], c[1], err)
		}
		if c[1] != "" && c[1] != "radram" {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { Check(c[0], c[1]) }); n != 0 {
			t.Errorf("Check(%q, %q) allocates %v times, want 0", c[0], c[1], n)
		}
	}
	unknown := "unknown experiment %q (want all, backends, " + strings.Join(All, ", ") +
		", or a benchmark: " + strings.Join(BenchmarkNames(), ", ") + ")"
	// Every benchmark name with a SIMDRAM port, median-total included.
	const ported = "array, database, median-kernel, median-total"
	for _, c := range []struct{ experiment, backend, want string }{
		{"", "", fmt.Sprintf(unknown, "")},
		{"fig99", "", fmt.Sprintf(unknown, "fig99")},
		{"bogus", "all", fmt.Sprintf(unknown, "bogus")},
		{"array", "fpga", `experiments: unknown backend "fpga" (want radram, simdram, or all)`},
		{"all", "RADram", `experiments: unknown backend "RADram" (want radram, simdram, or all)`},
		{"matrix-boeing", "simdram", `benchmark "matrix-boeing" has no simdram port (ported: ` + ported + ")"},
		{"mpeg-mmx", "all", `benchmark "mpeg-mmx" has no simdram port (ported: ` + ported + ")"},
	} {
		if err := Check(c.experiment, c.backend); err == nil || err.Error() != c.want {
			t.Errorf("Check(%q, %q) = %v, want %s", c.experiment, c.backend, err, c.want)
		}
	}
}

// TestDispatchRefusesBeforeWriting checks that Dispatch prints nothing for
// a run Check refuses, even one whose first backend would run.
func TestDispatchRefusesBeforeWriting(t *testing.T) {
	var b strings.Builder
	err := Dispatch(&b, nil, "matrix-boeing", DefaultConfig(), []float64{0.5}, Options{Backend: "all"})
	if err == nil || b.Len() != 0 {
		t.Fatalf("Dispatch = %v after writing %q, want an error and no output", err, b.String())
	}
}

func TestDispatchUnknownExperiment(t *testing.T) {
	err := Dispatch(io.Discard, nil, "bogus", DefaultConfig(), QuickPagePoints(), Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
}

// TestDispatchBenchmarkSweep smoke-runs the smallest real dispatch path and
// checks the rendered figure reaches the writer.
func TestDispatchBenchmarkSweep(t *testing.T) {
	var b strings.Builder
	if err := Dispatch(&b, nil, "array", DefaultConfig(), []float64{0.5}, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "array") {
		t.Fatalf("dispatch output missing benchmark series:\n%s", b.String())
	}
}

// TestBackendsSectionOfAllMatchesBackendsStudy: "all" on a second backend
// appends the three-way study, which compares SIMDRAM against RADram and
// must therefore print exactly what the study prints alone.
func TestBackendsSectionOfAllMatchesBackendsStudy(t *testing.T) {
	points := []float64{0.5, 2}
	var all, alone strings.Builder
	if err := Dispatch(&all, nil, "all", DefaultConfig(), points, Options{Backend: "simdram"}); err != nil {
		t.Fatal(err)
	}
	if err := Dispatch(&alone, nil, "backends", DefaultConfig(), points, Options{}); err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(all.String(), "\n##### backends #####\n")
	if !ok {
		t.Fatalf("no backends section in:\n%s", all.String())
	}
	if section != alone.String() {
		t.Errorf("backends section of all on simdram:\n%s\nwant the study alone:\n%s", section, alone.String())
	}
}

// TestBackendAllKeepsEachBackendsCSV: -backend all writes each backend's
// figure to its own file, RADram under the plain name.
func TestBackendAllKeepsEachBackendsCSV(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Backend: "all", CSVDir: dir}
	if err := Dispatch(io.Discard, nil, "array", DefaultConfig(), []float64{0.5, 2}, opt); err != nil {
		t.Fatal(err)
	}
	rad, err := os.ReadFile(filepath.Join(dir, "array.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := os.ReadFile(filepath.Join(dir, "array-simdram.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(rad) == string(sd) {
		t.Errorf("RADram and SIMDRAM CSV files are identical:\n%s", rad)
	}
}
