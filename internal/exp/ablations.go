package exp

import (
	"context"
	"fmt"
	"strconv"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/mapping"
	"facil/internal/pim"
	"facil/internal/soc"
)

// Ablation studies for the design choices DESIGN.md calls out.

// AblationRelayoutPolicy compares the two hybrid-baseline re-layout
// policies the paper discusses in Sec. III footnote 2: on-demand
// re-layout per matrix (the paper's baseline) versus re-laying all
// weights at each phase transition (which pays a second full re-layout
// when returning to the decode phase).
func (l *Lab) AblationRelayoutPolicy() (Table, error) {
	s, err := l.System(soc.Jetson)
	if err != nil {
		return Table{}, err
	}
	re, err := s.RelayoutAllWeightsSeconds()
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:     "ablations/relayout-policy",
		Title:  "Ablation: hybrid re-layout policy, TTLT on Jetson (Llama3-8B)",
		Header: []string{"prefill/decode", "on-demand", "all-at-once", "overhead"},
		Notes: []string{
			"all-at-once pays a second full re-layout when transitioning back to decode",
		},
	}
	for _, pd := range [][2]int{{16, 16}, {16, 64}, {64, 64}, {128, 32}} {
		onDemand, err := s.TTLTStatic(engine.HybridStatic, pd[0], pd[1])
		if err != nil {
			return Table{}, err
		}
		allAtOnce := onDemand + re
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("P%d/D%d", pd[0], pd[1]),
			fmt.Sprintf("%.3f s", onDemand),
			fmt.Sprintf("%.3f s", allAtOnce),
			x(allAtOnce / onDemand),
		})
	}
	return tab, nil
}

// AblationDynamicThreshold reports each platform's profiled prefill-length
// crossover between the PIM and SoC prefill routes, for the hybrid-dynamic
// baseline and for FACIL (Sec. VI-C). Platforms profile as independent
// sweep points.
func (l *Lab) AblationDynamicThreshold(ctx context.Context) (Table, error) {
	tab := Table{
		ID:     "ablations/offload-threshold",
		Title:  "Ablation: profiled prefill offload thresholds (SoC beats PIM at L >= threshold)",
		Header: []string{"platform", "hybrid dynamic", "FACIL"},
		Notes: []string{
			"FACIL's SoC route pays no re-layout, so it crosses over at shorter prefills",
		},
	}
	rows, err := sweep(ctx, l, "ablation-thresholds", soc.All(), func(ctx context.Context, p soc.Platform) ([]string, error) {
		s, err := l.System(p)
		if err != nil {
			return nil, err
		}
		hy, err := s.PrefillThreshold(engine.HybridDynamic)
		if err != nil {
			return nil, err
		}
		fa, err := s.PrefillThreshold(engine.FACIL)
		if err != nil {
			return nil, err
		}
		return []string{p.Name, strconv.Itoa(hy), strconv.Itoa(fa)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	tab.Rows = rows
	return tab, nil
}

// relayoutStream builds the mixed read(PIM)/write(conventional) burst
// stream used for re-layout measurements on a spec. The requests are
// values: replays read them through dram.SliceSource without mutating
// them, so one stream can feed many sweep points concurrently.
func relayoutStream(spec dram.Spec, bytes int64) ([]dram.Request, error) {
	mc := mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}
	tab, err := mapping.NewTable(mc, mapping.AiMChunk(spec.Geometry))
	if err != nil {
		return nil, err
	}
	minID, _ := tab.Range()
	src := tab.Lookup(minID)
	dst := tab.Conventional()
	tb := int64(spec.Geometry.TransferBytes)
	dstBase := uint64(spec.Geometry.CapacityBytes() / 2)
	reqs := make([]dram.Request, 0, 2*bytes/tb)
	for i := int64(0); i < bytes/tb; i++ {
		pa := uint64(i) * uint64(tb)
		ra, _ := src.Translate(pa)
		wa, _ := dst.Translate(dstBase + pa)
		reqs = append(reqs, dram.Request{Addr: ra}, dram.Request{Addr: wa, Write: true})
	}
	return reqs, nil
}

// AblationSchedulerWindow measures how the memory controller's FR-FCFS
// reorder window affects the achieved re-layout bandwidth — the scheduling
// headroom the baseline's re-layout cost estimate depends on. Windows
// measure as independent sweep points over fresh controllers.
func (l *Lab) AblationSchedulerWindow(ctx context.Context) (Table, error) {
	spec := dram.JetsonOrinLPDDR5
	reqs, err := relayoutStream(spec, 4<<20)
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:     "ablations/scheduler-window",
		Title:  "Ablation: FR-FCFS reorder window vs re-layout bandwidth (Jetson memory)",
		Header: []string{"window", "bandwidth", "row hit rate"},
	}
	rows, err := sweep(ctx, l, "ablation-window", []int{1, 4, 16, 32, 128}, func(ctx context.Context, w int) ([]string, error) {
		// SliceSource replays enqueue by value, so sweep points share the
		// request slice without copies or write races.
		res, err := dram.MeasureStreamFuncWindow(spec, dram.SliceSource(reqs), w)
		if err != nil {
			return nil, err
		}
		return []string{
			strconv.Itoa(w),
			fmt.Sprintf("%.1f GB/s", res.BandwidthGBs),
			pc(res.RowHitRate),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	tab.Rows = rows
	return tab, nil
}

// AblationRowPolicy compares open-row and close-row (auto-precharge) bank
// management on sequential and random traffic — the classic DRAM policy
// tradeoff the re-layout and GEMM-stream models sit on top of. The four
// (traffic, policy) combinations run as independent sweep points.
func (l *Lab) AblationRowPolicy(ctx context.Context) (Table, error) {
	spec := dram.IPhoneLPDDR5
	g := spec.Geometry
	run := func(policy dram.RowPolicy, random bool) (float64, error) {
		ctl, err := dram.NewController(spec)
		if err != nil {
			return 0, err
		}
		ctl.SetRefreshEnabled(false)
		for i := 0; i < g.Channels; i++ {
			ctl.Channel(i).SetRowPolicy(policy)
		}
		rng := newDetRand(77)
		const n = 16384
		for i := 0; i < n; i++ {
			var a dram.Addr
			if random {
				a = dram.Addr{
					Channel: rng.Intn(g.Channels),
					Rank:    rng.Intn(g.RanksPerChannel),
					Bank:    rng.Intn(g.BanksPerRank),
					Row:     rng.Intn(g.Rows),
					Column:  rng.Intn(g.ColumnsPerRow()),
				}
			} else {
				a = dram.Addr{
					Channel: i % g.Channels,
					Bank:    i / g.Channels % g.BanksPerRank,
					Row:     i / (g.Channels * g.BanksPerRank * 64) % g.Rows,
					Column:  i / (g.Channels * g.BanksPerRank) % 64,
				}
			}
			if err := ctl.EnqueueValue(dram.Request{Addr: a}); err != nil {
				return 0, err
			}
		}
		cycles := ctl.Drain()
		bytes := float64(n * g.TransferBytes)
		return bytes / spec.Timing.Seconds(cycles) / 1e9, nil
	}
	type combo struct {
		policy dram.RowPolicy
		random bool
	}
	var points []combo
	for _, random := range []bool{false, true} {
		for _, policy := range []dram.RowPolicy{dram.OpenRow, dram.CloseRow} {
			points = append(points, combo{policy: policy, random: random})
		}
	}
	bws, err := sweep(ctx, l, "ablation-rowpolicy", points, func(ctx context.Context, c combo) (float64, error) {
		return run(c.policy, c.random)
	})
	if err != nil {
		return Table{}, err
	}
	tab := Table{
		ID:     "ablations/row-policy",
		Title:  "Ablation: row-buffer policy vs traffic pattern (iPhone memory)",
		Header: []string{"traffic", "open-row", "close-row (auto-precharge)"},
		Notes: []string{
			"close-row hides precharge latency on random traffic; open-row wins on streams",
		},
	}
	for i, label := range []string{"sequential", "random"} {
		tab.Rows = append(tab.Rows, []string{
			label,
			fmt.Sprintf("%.1f GB/s", bws[2*i]),
			fmt.Sprintf("%.1f GB/s", bws[2*i+1]),
		})
	}
	return tab, nil
}

// AblationConventionalMapping compares sequential-read bandwidth across
// candidate conventional mappings, verifying the paper's choice of
// row:rank:column:bank:channel (Sec. VI-A). Layouts measure as
// independent sweep points.
func (l *Lab) AblationConventionalMapping(ctx context.Context) (Table, error) {
	spec := dram.JetsonOrinLPDDR5
	layouts := []string{
		"row:rank:column:bank:channel", // the paper's (channel bits at LSB)
		"row:rank:bank:column:channel",
		"row:column:rank:bank:channel",
		"row:rank:channel:bank:column", // column at LSB: single-bank streaks
		"channel:bank:rank:row:column", // interleave at MSB: pathological
	}
	tab := Table{
		ID:     "ablations/conventional-mapping",
		Title:  "Ablation: conventional mapping choice vs sequential read bandwidth (Jetson memory)",
		Header: []string{"mapping (MSB->LSB)", "bandwidth", "of peak"},
		Notes: []string{
			"the paper verifies row:rank:column:bank:channel reaches near-peak sequential bandwidth",
		},
	}
	tb := int64(spec.Geometry.TransferBytes)
	rows, err := sweep(ctx, l, "ablation-convmap", layouts, func(ctx context.Context, layout string) ([]string, error) {
		m, err := addr.FromLayout(spec.Geometry, layout)
		if err != nil {
			return nil, err
		}
		n := (8 << 20) / tb
		var i int64
		res, err := dram.MeasureStreamFunc(spec, func(r *dram.Request) bool {
			if i >= n {
				return false
			}
			a, _ := m.Translate(uint64(i) * uint64(tb))
			*r = dram.Request{Addr: a}
			i++
			return true
		})
		if err != nil {
			return nil, err
		}
		return []string{
			layout,
			fmt.Sprintf("%.1f GB/s", res.BandwidthGBs),
			pc(res.BandwidthGBs / spec.PeakBandwidthGBs()),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	tab.Rows = rows
	return tab, nil
}

// AblationXORHashing measures the DRAM-level effect of XOR bank hashing
// on pathological strided traffic: a stride equal to one bank's row span
// serializes on a single bank under the plain conventional mapping, while
// folding row bits into the bank index restores bank-level parallelism.
// The hash leaves FACIL's PIM mappings untouched (lock-step placement
// needs clean PU bits), so the two features compose per MapID.
func AblationXORHashing() (Table, error) {
	spec := dram.IPhoneLPDDR5
	g := spec.Geometry
	base, err := addr.Conventional(g)
	if err != nil {
		return Table{}, err
	}
	hashed, err := addr.WithXOR(base, []addr.XORPair{
		{Target: addr.FieldBank, TargetBit: 0, RowBit: 0},
		{Target: addr.FieldBank, TargetBit: 1, RowBit: 1},
		{Target: addr.FieldBank, TargetBit: 2, RowBit: 2},
		{Target: addr.FieldBank, TargetBit: 3, RowBit: 3},
	})
	if err != nil {
		return Table{}, err
	}
	stride := int64(g.RowBytes * g.BanksPerRank * g.Channels * g.RanksPerChannel)
	type translator interface {
		Translate(uint64) (dram.Addr, int)
	}
	run := func(m translator) (float64, error) {
		var i int64
		res, err := dram.MeasureStreamFunc(spec, func(r *dram.Request) bool {
			if i >= 4096 {
				return false
			}
			a, _ := m.Translate(uint64(i*stride) % uint64(g.CapacityBytes()))
			*r = dram.Request{Addr: a, Arrival: i / int64(g.Channels)}
			i++
			return true
		})
		if err != nil {
			return 0, err
		}
		return res.BandwidthGBs, nil
	}
	plainBW, err := run(base)
	if err != nil {
		return Table{}, err
	}
	hashedBW, err := run(hashed)
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:     "ablations/xor-hashing",
		Title:  "Ablation: XOR bank hashing vs pathological stride bandwidth (iPhone memory)",
		Header: []string{"conventional mapping", "bandwidth", "of peak"},
		Rows: [][]string{
			{"plain row:rank:column:bank:channel", fmt.Sprintf("%.1f GB/s", plainBW), pc(plainBW / spec.PeakBandwidthGBs())},
			{"with 4-bit XOR bank hash", fmt.Sprintf("%.1f GB/s", hashedBW), pc(hashedBW / spec.PeakBandwidthGBs())},
		},
		Notes: []string{
			fmt.Sprintf("stride = %d B (one bank's row span); hashing recovers %.1fx bandwidth", stride, hashedBW/plainBW),
		},
	}, nil
}

// AblationGEMMStreams sweeps the concurrency of the GEMM weight stream in
// the Table III layout-slowdown model, showing that the PIM layout only
// hurts kernels whose in-flight row coverage misaligns with the PU space —
// and that the default (RowsPerPass-aligned) operating point matches the
// paper's small measured slowdowns.
func (l *Lab) AblationGEMMStreams(ctx context.Context) (Table, error) {
	p := soc.Jetson
	op := soc.Linear{L: 16, In: 4096, Out: 4096, DTypeBytes: 2}
	tab := Table{
		ID:     "ablations/gemm-streams",
		Title:  "Ablation: GEMM stream concurrency vs PIM-layout memory slowdown (Jetson)",
		Header: []string{"streams", "memory slowdown"},
		Notes: []string{
			"0 = auto (RowsPerPass-aligned tile, the default operating point)",
		},
	}
	rows, err := sweep(ctx, l, "ablation-streams", []int{32, 128, 0, 512, 1024}, func(ctx context.Context, streams int) ([]string, error) {
		mem, err := soc.MeasureMemSlowdown(p, op, soc.LayoutSlowdownConfig{Streams: streams})
		if err != nil {
			return nil, err
		}
		label := strconv.Itoa(streams)
		if streams == 0 {
			label = "auto"
		}
		return []string{label, pc(mem)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	tab.Rows = rows
	return tab, nil
}

// AblationMACInterval sweeps the PIM MAC cadence and reports the decode
// speedup over the ideal NPU — documenting the calibration behind the
// default of 6 burst cycles (paper Fig. 3 implies ~3.3x). Each interval
// builds its own (serial) lab, so intervals sweep independently.
func (l *Lab) AblationMACInterval(ctx context.Context) (Table, error) {
	tab := Table{
		ID:     "ablations/mac-interval",
		Title:  "Ablation: PIM MAC interval calibration (Jetson, Llama3-8B, 64+64 tokens)",
		Header: []string{"MAC interval (burst cycles)", "internal BW", "PIM vs ideal NPU"},
		Notes: []string{
			"default interval 6 reproduces the paper's Fig. 3 ratio (3.32x)",
		},
	}
	rows, err := sweep(ctx, l, "ablation-mac", []int{2, 4, 6, 8, 12}, func(ctx context.Context, interval int) ([]string, error) {
		cfg := engine.DefaultConfig()
		pimCfg := pim.DefaultAiM(soc.Jetson.Spec.Geometry)
		pimCfg.MACIntervalCycles = interval
		cfg.PIM = &pimCfg
		lab := NewLab(cfg)
		lab.SetParallelism(1)
		r, err := lab.Fig3Compute()
		if err != nil {
			return nil, err
		}
		return []string{
			strconv.Itoa(interval),
			fmt.Sprintf("%.0f GB/s", pimCfg.InternalBandwidthGBs(soc.Jetson.Spec)),
			x(r.SpeedupVsIdealNPU),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	tab.Rows = rows
	return tab, nil
}
