package archive

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/minidb"
)

// manifestLineOK is the fuzz oracle's independent reading of the legacy
// line grammar: "rel size crc" or "rel size crc pack off", tab-separated,
// with integer size and offset and a 32-bit crc.
func manifestLineOK(line string) bool {
	p := strings.Split(line, "\t")
	if len(p) != 3 && len(p) != 5 {
		return false
	}
	if _, err := strconv.ParseInt(p[1], 10, 64); err != nil {
		return false
	}
	if _, err := strconv.ParseUint(p[2], 10, 32); err != nil {
		return false
	}
	if len(p) == 5 {
		if _, err := strconv.ParseInt(p[4], 10, 64); err != nil {
			return false
		}
	}
	return true
}

// FuzzLoadManifest feeds arbitrary bytes to the pre-lake manifest loader.
// It must never panic, and it must return members only when every line is
// well-formed — apart from a malformed final line without a newline (a
// torn append), which is dropped. Every member it returns is then read
// back against a 16-byte container: out-of-range sizes and offsets must
// be refused, not panic.
func FuzzLoadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest []byte) {
		fsys := fault.NewFS()
		if err := fsys.MkdirAll("arch/packs", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := minidb.WriteFile(fsys, "arch/"+manifestName, 0o644, minidb.WriteBytes(manifest)); err != nil {
			t.Fatal(err)
		}
		if err := minidb.WriteFile(fsys, "arch/packs/p00000000.pack", 0o444, minidb.WriteBytes([]byte("0123456789abcdef"))); err != nil {
			t.Fatal(err)
		}
		files, err := loadManifest(fsys, "arch")

		lines := strings.Split(string(manifest), "\n")
		wellFormed := true
		for i, line := range lines {
			if line != "" && i != len(lines)-1 && !manifestLineOK(line) {
				wellFormed = false
			}
		}
		if wellFormed != (err == nil) {
			t.Fatalf("well-formed=%v but loader err=%v", wellFormed, err)
		}
		if err != nil {
			if files != nil {
				t.Fatalf("refused manifest still returned %d members", len(files))
			}
			return
		}
		for i, line := range lines {
			if line == "" || (i == len(lines)-1 && !manifestLineOK(line)) {
				continue
			}
			if _, ok := files[strings.SplitN(line, "\t", 2)[0]]; !ok {
				t.Fatalf("well-formed line %q not loaded", line)
			}
		}
		for rel, meta := range files {
			_, _ = readMember(fsys, "arch", rel, meta)
		}
	})
}
