package facil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/arena.golden instead of comparing against it:
//
//	go test . -run TestArenaGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from current output")

// arenaGoldenShapes covers square, tall, wide-partitioned and INT8
// matrices; allocating them in sequence in one arena also pins the VA
// allocator and the accumulated TLB hit rate.
var arenaGoldenShapes = []struct{ rows, cols, dtype int }{
	{4096, 4096, 2},
	{1024, 4096, 2},
	{11008, 4096, 2},
	{256, 65536, 2},
	{4096, 11008, 1},
}

// TestArenaGolden pins every value the public Arena reports for each
// platform and shape: VA, MapID, layout, the PIM and conventional
// locations of the four matrix corners, and the TLB hit rate.
func TestArenaGolden(t *testing.T) {
	var b strings.Builder
	partitioned := false
	for _, platform := range Platforms() {
		a, err := NewArena(platform)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s (%d mappings)\n", platform, a.SupportedMappings())
		for _, s := range arenaGoldenShapes {
			w, err := a.Pimalloc(s.rows, s.cols, s.dtype)
			if err != nil {
				t.Fatalf("%s %dx%dx%d: %v", platform, s.rows, s.cols, s.dtype, err)
			}
			partitioned = partitioned || w.Partitioned
			fmt.Fprintf(&b, "%dx%d x%dB: va=%#x bytes=%d pages=%d mapid=%d partitioned=%v x%d\n",
				s.rows, s.cols, s.dtype, w.VA, w.Bytes, w.HugePages, w.MapID, w.Partitioned, w.PartitionsPerRow)
			fmt.Fprintf(&b, "  layout %s\n", w.MappingLayout)
			for _, c := range [][2]int{{0, 0}, {0, s.cols - 1}, {s.rows - 1, 0}, {s.rows - 1, s.cols - 1}} {
				va, err := a.ElementVA(w, c[0], c[1])
				if err != nil {
					t.Fatal(err)
				}
				pimLoc, err := a.ElementLocation(w, c[0], c[1])
				if err != nil {
					t.Fatal(err)
				}
				convLoc, err := a.ConventionalLocation(va)
				if err != nil {
					t.Fatal(err)
				}
				id, err := a.MapIDOf(va)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "  [%d,%d] mapid=%d pim=%s conv=%s\n", c[0], c[1], id, pimLoc, convLoc)
			}
			fmt.Fprintf(&b, "  tlb hit rate %.6f\n", a.TLBHitRate())
		}
	}
	if !partitioned {
		t.Error("no shape exercised partitioned placement")
	}
	path := filepath.Join("testdata", "arena.golden")
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s: Arena output diverged from golden file\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
