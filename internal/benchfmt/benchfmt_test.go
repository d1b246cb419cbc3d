package benchfmt

//lint:file-allow floateq assertions compare parsed literals, exact by construction
import (
	"bytes"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig1aLinearN             	       3	  10122907 ns/op	11045362 B/op	   38204 allocs/op
BenchmarkFig1aLinearN             	       4	   8546871 ns/op	11045341 B/op	   38204 allocs/op
BenchmarkFig1aLinearN             	       3	   9200000 ns/op	11045350 B/op	   38204 allocs/op
BenchmarkFig1bRandomN-8           	       3	  11301038 ns/op	15530090 B/op	   58960 allocs/op
PASS
ok  	repro	25.1s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Goos != "linux" || f.Goarch != "amd64" || f.Pkg != "repro" {
		t.Errorf("environment = %q/%q/%q", f.Goos, f.Goarch, f.Pkg)
	}
	if len(f.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(f.Results))
	}
	a := f.Results[0]
	if a.Name != "BenchmarkFig1aLinearN" || a.Runs != 3 {
		t.Errorf("first result = %+v", a)
	}
	if a.NsPerOp != 9200000 {
		t.Errorf("aggregated ns/op = %g, want the median 9200000", a.NsPerOp)
	}
	// Iterations follows the ns/op-median run.
	if a.Iterations != 3 {
		t.Errorf("iterations = %d, want 3 (from the median run)", a.Iterations)
	}
	if a.AllocsPerOp != 38204 || a.BytesPerOp != 11045350 {
		t.Errorf("mem stats = %g B/op %g allocs/op", a.BytesPerOp, a.AllocsPerOp)
	}
	// The -8 GOMAXPROCS suffix must be stripped so baselines pair up.
	if b := f.Results[1]; b.Name != "BenchmarkFig1bRandomN" {
		t.Errorf("suffix not stripped: %q", b.Name)
	}
}

func TestMedianEvenCount(t *testing.T) {
	// With an even run count the median is the mean of the two middle
	// values, computed field-wise.
	raw := `BenchmarkX 1 100 ns/op 10 B/op 1 allocs/op
BenchmarkX 1 400 ns/op 40 B/op 1 allocs/op
BenchmarkX 1 200 ns/op 80 B/op 3 allocs/op
BenchmarkX 1 300 ns/op 20 B/op 5 allocs/op
`
	f, err := Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Results[0]
	if r.Runs != 4 {
		t.Errorf("runs = %d, want 4", r.Runs)
	}
	if r.NsPerOp != 250 {
		t.Errorf("ns/op = %g, want 250", r.NsPerOp)
	}
	if r.BytesPerOp != 30 {
		t.Errorf("B/op = %g, want 30", r.BytesPerOp)
	}
	if r.AllocsPerOp != 2 {
		t.Errorf("allocs/op = %g, want 2", r.AllocsPerOp)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX 3 nonsense ns/op\n")); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX 3\n")); err == nil {
		t.Error("short line accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	f.Go = "go1.24.0"
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(f.Results) || got.Results[0] != f.Results[0] {
		t.Errorf("round trip changed results: %+v != %+v", got.Results, f.Results)
	}
	if got.Go != "go1.24.0" {
		t.Errorf("Go version lost in round trip: %q", got.Go)
	}
}

// TestParseHeapBytes covers the large-n capture lines cmd/bench -large
// emits: a heap-bytes unit per result, aggregated by median across
// repeats, and round-tripping with the schema header.
func TestParseHeapBytes(t *testing.T) {
	raw := "BenchmarkLargeN/n=10000/q=20/path=grid 1 123456789 ns/op 400000000 heap-bytes\n" +
		"BenchmarkLargeN/n=10000/q=20/path=grid 1 123456000 ns/op 500000000 heap-bytes\n" +
		"BenchmarkLargeN/n=10000/q=20/path=grid 1 123457000 ns/op 600000000 heap-bytes\n"
	f, err := Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(f.Results))
	}
	r := f.Results[0]
	if r.Name != "BenchmarkLargeN/n=10000/q=20/path=grid" || r.Runs != 3 {
		t.Fatalf("unexpected aggregation: %+v", r)
	}
	if r.HeapBytes != 500000000 {
		t.Fatalf("heap median %g, want 5e8", r.HeapBytes)
	}

	f.SchemaVersion = SchemaVersion
	f.Label = "pr5"
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.Label != "pr5" || got.Results[0].HeapBytes != 500000000 {
		t.Fatalf("schema header or heap bytes lost in round trip: %+v", got)
	}
}

// TestCompare pins the ns/op gate and its pairing rules: a baseline
// row the capture lacks (a renamed or deleted gated benchmark) is a
// regression, a row only the capture has is skipped.
func TestCompare(t *testing.T) {
	base := File{Results: []Result{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Gone", NsPerOp: 100},
	}}
	cur := File{Results: []Result{
		{Name: "A", NsPerOp: 110}, // +10%: within a 15% threshold
		{Name: "B", NsPerOp: 120}, // +20%: regression
		{Name: "New", NsPerOp: 50},
	}}
	deltas := Compare(base, cur, 0.15, 0.25)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3 (current-only New skipped): %+v", len(deltas), deltas)
	}
	// Sorted worst-first: the missing baseline row, then by ratio.
	if deltas[0].Name != "Gone" || !deltas[0].Missing || !deltas[0].Regression {
		t.Errorf("worst delta = %+v, want missing regression on Gone", deltas[0])
	}
	if deltas[1].Name != "B" || !deltas[1].Regression || deltas[1].Missing {
		t.Errorf("delta B = %+v, want regression on B", deltas[1])
	}
	if deltas[2].Name != "A" || deltas[2].Regression {
		t.Errorf("delta A = %+v, want no regression", deltas[2])
	}
	if !AnyRegression(deltas) {
		t.Error("AnyRegression = false")
	}
	if AnyRegression(Compare(base, base, 0.15, 0.25)) {
		t.Error("self-comparison flagged a regression")
	}
}

// TestCompareHeap pins the independent heap axis: a memory regression
// fails the gate even when ns/op improves, heap is only compared where
// both sides carry a sample, and the worst axis drives the sort.
func TestCompareHeap(t *testing.T) {
	base := File{Results: []Result{
		{Name: "Mem", NsPerOp: 100, HeapBytes: 1 << 20},
		{Name: "NsOnly", NsPerOp: 100},
		{Name: "Both", NsPerOp: 100, HeapBytes: 1 << 20},
	}}
	cur := File{Results: []Result{
		{Name: "Mem", NsPerOp: 50, HeapBytes: 2 << 20}, // 2x faster, 2x more memory
		{Name: "NsOnly", NsPerOp: 100, HeapBytes: 1 << 30},
		{Name: "Both", NsPerOp: 105, HeapBytes: 1<<20 + 1<<18}, // +25% heap: at threshold, not over
	}}
	deltas := Compare(base, cur, 0.15, 0.25)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3: %+v", len(deltas), deltas)
	}
	if deltas[0].Name != "Mem" || !deltas[0].HeapRegr || deltas[0].NsRegr || !deltas[0].Regression {
		t.Errorf("Mem delta = %+v, want heap-only regression sorted first", deltas[0])
	}
	for _, d := range deltas[1:] {
		if d.Regression {
			t.Errorf("delta %+v flagged, want clean (heap unpaired or within threshold)", d)
		}
		if d.Name == "NsOnly" && d.HeapRatio != 0 {
			t.Errorf("NsOnly heap ratio %g, want 0 (no baseline sample)", d.HeapRatio)
		}
	}
}
