package trace

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
)

// TestPooledReadsAreIndependent re-reads the same payloads, sequentially
// and concurrently: records parsed from a recycled buffer (CSV's pooled
// slurp buffer, NDJSON's reused chunk buffers) must not alias it, so
// logs from consecutive and simultaneous reads stay identical.
func TestPooledReadsAreIndependent(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame3Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, ndjsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&ndjsonBuf, log); err != nil {
		t.Fatal(err)
	}

	first, err := ReadCSV(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Interleave an NDJSON read so the CSV re-read below gets a buffer
	// the pool has already recycled through a different parser.
	if _, err := ReadNDJSON(bytes.NewReader(ndjsonBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	second, err := ReadCSV(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Records(), second.Records()) {
		t.Fatal("re-read through the recycled buffer diverged")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got *failures.Log
			var err error
			if g%2 == 0 {
				got, err = ReadCSV(bytes.NewReader(csvBuf.Bytes()))
			} else {
				got, err = ReadNDJSON(bytes.NewReader(ndjsonBuf.Bytes()))
			}
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got.Len() != log.Len() {
				t.Errorf("goroutine %d: %d records, want %d", g, got.Len(), log.Len())
			}
		}(g)
	}
	wg.Wait()
}

// TestCountLines pins the pre-sizing heuristic.
func TestCountLines(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"a", 1},
		{"a\n", 1},
		{"a\nb", 2},
		{"a\nb\n", 2},
	}
	for _, c := range cases {
		if got := countLines([]byte(c.in)); got != c.want {
			t.Errorf("countLines(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
