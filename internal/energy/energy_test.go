package energy

import (
	"testing"

	"facil/internal/dram"
)

// TestDefaultsValidate checks the defaults are physical: every energy
// and power constant is positive.
func TestDefaultsValidate(t *testing.T) {
	p := DefaultLPDDR5()
	for i, v := range []float64{p.ACTpJ, p.ArrayReadPJPerByte, p.ArrayWritePJPerByte,
		p.IOPJPerByte, p.MACPJPerByte, p.BackgroundMW} {
		if v <= 0 {
			t.Errorf("DefaultLPDDR5 field %d = %g, want > 0: %+v", i, v, p)
		}
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Activate: 1, Array: 2, Interface: 3, MAC: 4, Background: 5}
	if a.Total() != 15 {
		t.Errorf("Total = %g", a.Total())
	}
	b := a
	b.Add(a)
	if b.Total() != 30 {
		t.Errorf("Add/Total = %g", b.Total())
	}
}

func TestPIMAvoidsInterfaceEnergy(t *testing.T) {
	p := DefaultLPDDR5()
	spec := dram.JetsonOrinLPDDR5
	const weights = int64(1 << 30)
	soc := SoCTraffic(p, spec, weights, 0, 0.95)
	pim := PIMGEMV(p, spec, weights, weights/int64(spec.Geometry.RowBytes)/int64(spec.Geometry.TotalBanks()), 1<<20)
	if pim.Interface >= soc.Interface/10 {
		t.Errorf("PIM interface energy %.3e not far below SoC %.3e", pim.Interface, soc.Interface)
	}
	if pim.Total() >= soc.Total() {
		t.Errorf("PIM GEMV energy %.3e not below SoC %.3e", pim.Total(), soc.Total())
	}
	if pim.MAC <= 0 {
		t.Error("PIM MAC energy missing")
	}
}

func TestSoCTrafficScalesLinearly(t *testing.T) {
	p := DefaultLPDDR5()
	spec := dram.IPhoneLPDDR5
	one := SoCTraffic(p, spec, 1<<20, 0.25, 0.9).Total()
	four := SoCTraffic(p, spec, 4<<20, 0.25, 0.9).Total()
	if r := four / one; r < 3.99 || r > 4.01 {
		t.Errorf("4x bytes gave %.3fx energy", r)
	}
}

func TestRowMissesCostActivations(t *testing.T) {
	p := DefaultLPDDR5()
	spec := dram.IPhoneLPDDR5
	hot := SoCTraffic(p, spec, 1<<20, 0, 0.99)
	cold := SoCTraffic(p, spec, 1<<20, 0, 0.50)
	if cold.Activate <= hot.Activate {
		t.Error("lower hit rate did not raise activation energy")
	}
}

func TestBackground(t *testing.T) {
	p := DefaultLPDDR5()
	b := Background(p, 2.0)
	want := p.BackgroundMW * 1e-3 * 2
	if b.Background != want {
		t.Errorf("Background = %g, want %g", b.Background, want)
	}
}
