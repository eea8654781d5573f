package facil

import (
	"testing"
)

func TestPublicSystemRoundTrip(t *testing.T) {
	s, err := NewSystem("NVIDIA Jetson AGX Orin 64GB", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.ModelName() != "Llama3-8B" {
		t.Errorf("default model = %s", s.ModelName())
	}
	base, err := s.TTFT(HybridStatic, 32)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := s.TTFT(FACIL, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sp := Speedup(base, fac); sp < 1.2 {
		t.Errorf("FACIL speedup = %.2f", sp)
	}
	ttlt, err := s.TTLT(FACIL, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ttlt <= fac {
		t.Error("TTLT not above TTFT")
	}
	if s.WeightFootprint(WeightDuplication) != 2*s.WeightFootprint(FACIL) {
		t.Error("duplication footprint wrong")
	}
	if _, err := s.DecodeStep(FACIL, 64); err != nil {
		t.Fatal(err)
	}
	if th, err := s.PrefillThreshold(FACIL); err != nil || th < 1 {
		t.Errorf("threshold = %d, %v", th, err)
	}
}

func TestPublicSystemErrors(t *testing.T) {
	if _, err := NewSystem("Nokia 3310", ""); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := NewSystem("Apple iPhone 15 Pro", "GPT-9"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDesignsAndPlatforms(t *testing.T) {
	if len(Designs()) != 5 {
		t.Errorf("Designs = %v", Designs())
	}
	if got := FACIL.String(); got != "FACIL" {
		t.Errorf("FACIL.String() = %q", got)
	}
	if len(Platforms()) != 4 {
		t.Errorf("Platforms = %v", Platforms())
	}
	if len(Models()) != 4 {
		t.Errorf("Models = %v", Models())
	}
	if len(ExperimentIDs()) < 10 {
		t.Errorf("ExperimentIDs = %v", ExperimentIDs())
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	out, err := RunExperiment("tab2")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] == "" {
		t.Errorf("tab2 output = %v", out)
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestArenaDualView(t *testing.T) {
	a, err := NewArena("Apple iPhone 15 Pro")
	if err != nil {
		t.Fatal(err)
	}
	tensor, err := a.Pimalloc(1024, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MapID <= 0 {
		t.Errorf("tensor MapID = %d, want PIM mapping", tensor.MapID)
	}
	if tensor.HugePages != int(tensor.paddedPages()) {
		t.Errorf("HugePages = %d", tensor.HugePages)
	}
	// The page table reports the PIM MapID for the tensor.
	id, err := a.MapIDOf(tensor.VA)
	if err != nil {
		t.Fatal(err)
	}
	if id != tensor.MapID {
		t.Errorf("MapIDOf = %d, tensor says %d", id, tensor.MapID)
	}
	// A whole matrix row stays in one bank under the PIM view...
	first, err := a.ElementLocation(tensor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := a.ElementLocation(tensor, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if first.Channel != mid.Channel || first.Rank != mid.Rank || first.Bank != mid.Bank {
		t.Errorf("row 0 spans banks: %v vs %v", first, mid)
	}
	// ...while the conventional view scatters the same bytes.
	conv0, err := a.ConventionalLocation(tensor.VA)
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := a.ConventionalLocation(tensor.VA + 32)
	if err != nil {
		t.Fatal(err)
	}
	if conv0.Channel == conv1.Channel {
		t.Errorf("conventional view did not interleave channels: %v vs %v", conv0, conv1)
	}
	// Consecutive matrix rows land on different PUs.
	next, err := a.ElementLocation(tensor, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next == first {
		t.Error("rows 0 and 1 share a PU location")
	}
	if a.SupportedMappings() < 2 {
		t.Errorf("SupportedMappings = %d", a.SupportedMappings())
	}
	if a.TLBHitRate() <= 0 {
		t.Error("TLB hit rate not accumulating")
	}
	// Bounds checks.
	if _, err := a.ElementLocation(tensor, -1, 0); err == nil {
		t.Error("negative row accepted")
	}
	if _, err := a.Translate(0xdeadbeef0000); err == nil {
		t.Error("unmapped VA translated")
	}
}

// paddedPages computes expected huge-page count for the test above.
func (t *Tensor) paddedPages() int64 {
	const huge = 2 << 20
	return (t.Bytes + huge - 1) / huge
}

func TestArenaFree(t *testing.T) {
	a, err := NewArena("Apple iPhone 15 Pro")
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.Pimalloc(1024, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(w); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Translate(w.VA); err == nil {
		t.Error("freed tensor still mapped")
	}
	if err := a.Free(w); err == nil {
		t.Error("double free accepted")
	}
}

func TestFreeShootsDownTLB(t *testing.T) {
	a, err := NewArena("Apple iPhone 15 Pro")
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.Pimalloc(256, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the TLB with the tensor's translation.
	if _, err := a.Translate(w.VA); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(w); err != nil {
		t.Fatal(err)
	}
	// The stale cached translation must not survive the unmap.
	if _, err := a.Translate(w.VA); err == nil {
		t.Error("TLB served a translation for freed memory")
	}
	if _, err := a.MapIDOf(w.VA); err == nil {
		t.Error("TLB served a MapID for freed memory")
	}
}

func TestArenaErrors(t *testing.T) {
	if _, err := NewArena("Nokia"); err == nil {
		t.Error("unknown platform accepted")
	}
	a, err := NewArena("Apple iPhone 15 Pro")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Pimalloc(0, 10, 2); err == nil {
		t.Error("zero rows accepted")
	}
}
