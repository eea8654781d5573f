package dram

// Request is one burst-sized memory access presented to the controller.
// The address is already translated to DRAM coordinates; physical-to-DRAM
// mapping happens before the controller (see mapping.Table).
type Request struct {
	// Addr is the DRAM coordinate of the burst.
	Addr Addr
	// Write is true for a write burst, false for a read.
	Write bool
	// Arrival is the cycle the request becomes visible to the scheduler.
	Arrival int64
	// Done is the cycle the request finished (data burst completed).
	// Populated by the controller.
	Done int64
}
