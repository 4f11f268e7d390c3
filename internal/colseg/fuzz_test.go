package colseg

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/minidb"
)

// corpusSeeds builds the deterministic seed inputs for FuzzDecodeSegment:
// well-formed segments over the test schema (every encoding: raw floats,
// deltas, delta-of-delta, dictionaries, null bitmaps) plus truncated and
// bit-flipped variants, so the fuzzer starts at the format instead of
// having to discover the magic bytes.
func corpusSeeds() [][]byte {
	db, err := minidb.Open("", eventsSchema())
	if err != nil {
		panic(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(42))
	b := &minidb.Batch{}
	for i := 0; i < 96; i++ {
		energy := minidb.F(3 + 300*rng.Float64())
		if i%7 == 0 {
			energy = minidb.Null()
		}
		b.Insert("ev", minidb.Row{
			minidb.I(int64(i)), minidb.S(fmt.Sprintf("u%03d", i%5)),
			minidb.F(float64(i) / 3), energy, minidb.I(int64(i % 4)), minidb.Bo(i%2 == 0),
		})
	}
	if _, err := db.Apply(b); err != nil {
		panic(err)
	}
	snap, err := db.TableSnap("ev")
	if err != nil {
		panic(err)
	}
	var seeds [][]byte
	for _, span := range [][2]int64{{0, 96}, {0, 1}, {32, 64}} {
		seg, err := BuildSegment(snap, span[0], span[1])
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, encodeSegment(seg))
	}
	whole := seeds[0]
	seeds = append(seeds, whole[:len(whole)/2]) // truncated mid-column
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/3] ^= 0x20 // CRC must catch this
	seeds = append(seeds, flipped)
	seeds = append(seeds, []byte("CSG1"), []byte("CSG1\x01\x02ev"))
	return seeds
}

// TestGenerateFuzzCorpus materializes the seeds as checked-in corpus files
// (go test fuzz v1 format). Existing files are left alone, so the corpus
// is stable once committed and self-heals if a file goes missing.
func TestGenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSegment")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range corpusSeeds() {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecodeSegment feeds arbitrary bytes to the segment decoder — the
// exact content a torn write, a bit flip, or a hostile file could put in a
// segment directory. The invariant is not "decodes": it is "never panics,
// never over-allocates off a lying header, and anything that does decode
// re-encodes to a stable fixed point and executes queries without fault".
func FuzzDecodeSegment(f *testing.F) {
	for _, seed := range corpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(data)
		if err != nil {
			return
		}
		re := encodeSegment(seg)
		seg2, err := decodeSegment(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted segment rejected: %v", err)
		}
		if len(encodeSegment(seg2)) != len(re) {
			t.Fatal("re-encoding is not a fixed point")
		}
		// Every accepted segment must execute the full operator chain
		// without panicking, whatever its zone maps and vectors claim.
		queries := []Query{{Table: seg.Table, Agg: AggCount}}
		for name := range seg.colIdx {
			queries = append(queries,
				Query{Table: seg.Table, Agg: AggStats, Col: name},
				Query{Table: seg.Table, Agg: AggStats, Col: name, GroupBy: name},
				Query{Table: seg.Table, Agg: AggCount, Where: []minidb.Pred{
					{Col: name, Op: minidb.OpLe, Val: minidb.F(1)}}},
				Query{Table: seg.Table, Agg: AggCount, Where: []minidb.Pred{
					{Col: name, Op: minidb.OpPrefix, Val: minidb.S("u")}}},
			)
		}
		for _, q := range queries {
			a := newAccum(&q)
			if _, _, err := runSegment(seg, &q, a, nil); err != nil {
				continue
			}
			a.finish()
		}
	})
}

// corpusFiles decodes the checked-in corpus of a fuzz target (go test
// fuzz v1 files holding one []byte argument each).
func corpusFiles(t *testing.T, target string) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in corpus for %s (%v)", target, err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestSegmentCorpusByteIdentity pins the CSG1 on-disk bytes: every
// well-formed checked-in seed must re-encode to itself byte for byte.
func TestSegmentCorpusByteIdentity(t *testing.T) {
	wellFormed := 0
	for i, seed := range corpusFiles(t, "FuzzDecodeSegment") {
		seg, err := decodeSegment(seed)
		if err != nil {
			continue
		}
		wellFormed++
		if re := encodeSegment(seg); !bytes.Equal(re, seed) {
			t.Errorf("seed %d: re-encoding differs from the checked-in bytes", i)
		}
	}
	if wellFormed < 3 {
		t.Fatalf("only %d well-formed segment seeds, want >= 3", wellFormed)
	}
}

// TestManifestGoldenBytes pins the CMF1 on-disk bytes against a manifest
// encoded before the sealed-file codec was shared.
func TestManifestGoldenBytes(t *testing.T) {
	m := &manifest{Table: "events", Rewrites: 3, Covered: 192,
		Files: []string{"events-0-64-3.seg", "events-64-128-3.seg", "events-128-192-3.seg"}}
	const golden = "CMF1\x01\x06events\x03\xc0\x01\x03\x11events-0-64-3.seg\x13events-64-128-3.seg\x14events-128-192-3.segh\xf9e\xcc"
	got := encodeManifest(m)
	if string(got) != golden {
		t.Fatalf("manifest bytes changed:\n got %q\nwant %q", got, golden)
	}
	back, err := decodeManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("decoded %+v, want %+v", back, m)
	}
}
