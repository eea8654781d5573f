package dram

import "testing"

func TestAllBankACTMACPRECycle(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)

	act, err := ch.AllBankACT(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for col := 0; col < 64; col++ {
		at, err := ch.AllBankMAC(0, col, 4)
		if err != nil {
			t.Fatal(err)
		}
		if at <= last && col > 0 {
			t.Fatalf("MAC %d issued at %d, not after previous %d", col, at, last)
		}
		last = at
	}
	if last < act+int64(spec.Timing.TRCD) {
		t.Errorf("first MAC before tRCD after ACT")
	}
	// MAC cadence: 64 MACs spaced >= 4 cycles.
	if got := last - act; got < 63*4 {
		t.Errorf("MAC stream took %d cycles, want >= %d", got, 63*4)
	}
	if _, err := ch.AllBankPRE(0); err != nil {
		t.Fatal(err)
	}
	// Next activation must respect tRP.
	act2, err := ch.AllBankACT(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if act2 <= last {
		t.Errorf("re-activation at %d not after MAC stream end %d", act2, last)
	}
}

func TestAllBankMACRequiresOpenRow(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	if _, err := ch.AllBankMAC(0, 0, 1); err == nil {
		t.Fatal("MAC on precharged bank accepted")
	}
}

func TestAllBankACTRequiresPrecharge(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	if _, err := ch.AllBankACT(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.AllBankACT(0, 1); err == nil {
		t.Fatal("double activation accepted")
	}
}

func TestAllBankBadArgs(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	if _, err := ch.AllBankACT(9, 0); err == nil {
		t.Error("bad rank accepted in AllBankACT")
	}
	if _, err := ch.AllBankACT(0, -1); err == nil {
		t.Error("bad row accepted in AllBankACT")
	}
	if _, err := ch.AllBankPRE(7); err == nil {
		t.Error("bad rank accepted in AllBankPRE")
	}
	if _, err := ch.AllBankMAC(7, 0, 1); err == nil {
		t.Error("bad rank accepted in AllBankMAC")
	}
	if _, err := ch.WriteGlobalBuffer(7, 1); err == nil {
		t.Error("bad rank accepted in WriteGlobalBuffer")
	}
	if _, err := ch.ReadMACResults(7, 1); err == nil {
		t.Error("bad rank accepted in ReadMACResults")
	}
}

func TestGlobalBufferTransfersUseDataBus(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	done, err := ch.WriteGlobalBuffer(0, 64) // 2 KB input segment
	if err != nil {
		t.Fatal(err)
	}
	if done < 64 {
		t.Errorf("64 bursts done at cycle %d, must be >= 64", done)
	}
	s := ch.Stats()
	if s.Writes != 64 {
		t.Errorf("Writes = %d, want 64", s.Writes)
	}
	done2, err := ch.ReadMACResults(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= done-int64(spec.Timing.CWL) {
		t.Errorf("RDMAC overlapped WRGB: %d <= %d", done2, done)
	}
}

func TestMACDoesNotUseDataBus(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.SetRefreshEnabled(false)
	if _, err := ch.AllBankACT(0, 0); err != nil {
		t.Fatal(err)
	}
	before := ch.Stats().DataBusCycles
	for i := 0; i < 10; i++ {
		if _, err := ch.AllBankMAC(0, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := ch.Stats().DataBusCycles; got != before {
		t.Errorf("MAC consumed %d data-bus cycles, want 0", got-before)
	}
}

func TestAdvanceToMonotone(t *testing.T) {
	spec := smallSpec()
	ch := NewChannel(&spec)
	ch.advanceNow(500)
	if ch.Now() != 500 {
		t.Errorf("Now = %d after advanceNow(500)", ch.Now())
	}
	ch.advanceNow(100) // must not go backwards
	if ch.Now() != 500 {
		t.Errorf("advanceNow moved clock backwards to %d", ch.Now())
	}
}

func TestMACIntervalGovernsThroughput(t *testing.T) {
	spec := smallSpec()
	run := func(interval int) int64 {
		ch := NewChannel(&spec)
		ch.SetRefreshEnabled(false)
		if _, err := ch.AllBankACT(0, 0); err != nil {
			t.Fatal(err)
		}
		var last int64
		for i := 0; i < 64; i++ {
			at, err := ch.AllBankMAC(0, i, interval)
			if err != nil {
				t.Fatal(err)
			}
			last = at
		}
		return last
	}
	fast := run(1)
	slow := run(8)
	if slow < fast*4 {
		t.Errorf("interval 8 stream (%d) not ~8x slower than interval 1 (%d)", slow, fast)
	}
}
