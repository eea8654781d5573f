// Quickstart: allocate an LLM weight matrix with pimalloc and watch the
// same bytes resolve to PIM-friendly and conventional DRAM locations.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"facil"
)

func main() {
	// An arena wraps one platform's memory system: page table, TLB,
	// buddy allocator and the mapping table that the MapID selects from
	// (the memory-controller frontend's mux).
	arena, err := facil.NewArena("Apple iPhone 15 Pro")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frontend supports %d PA-to-DA mappings (1 conventional + PIM family)\n\n",
		arena.SupportedMappings())

	// pimalloc a 4096x4096 FP16 projection matrix. The mapping selector
	// picks the MapID from the matrix/memory/PIM configuration and the
	// OS records it in the huge-page PTEs.
	w, err := arena.Pimalloc(4096, 4096, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pimalloc(4096x4096 fp16):\n")
	fmt.Printf("  va            = %#x\n", w.VA)
	fmt.Printf("  bytes         = %d (%d huge pages)\n", w.Bytes, w.HugePages)
	fmt.Printf("  MapID         = %d (partitioned=%v x%d)\n", w.MapID, w.Partitioned, w.PartitionsPerRow)
	fmt.Printf("  page-offset mapping: %s\n\n", w.MappingLayout)

	// PIM view: an entire matrix row stays inside one bank so a single
	// processing unit computes its dot product without reduction.
	fmt.Println("PIM-optimized placement (per-element DRAM locations):")
	for _, e := range [][2]int{{0, 0}, {0, 1023}, {0, 2048}, {1, 0}, {2, 0}} {
		loc, err := arena.ElementLocation(w, e[0], e[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  W[%4d,%4d] -> %s\n", e[0], e[1], loc)
	}

	// Conventional view of the same first bytes: consecutive bursts
	// interleave across channels — what a GEMM kernel wants, and what
	// the PTE's MapID lets the SoC keep using via virtual addresses.
	fmt.Println("\nsame bytes under the conventional mapping (what the SoC frontend")
	fmt.Println("would use for a page without a PIM MapID):")
	for off := uint64(0); off < 4*32; off += 32 {
		loc, err := arena.ConventionalLocation(w.VA + off)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  va+%3d -> %s\n", off, loc)
	}

	fmt.Printf("\nTLB hit rate during this walkthrough: %.0f%%\n", 100*arena.TLBHitRate())
}
