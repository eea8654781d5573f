package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"facil/internal/addr"
	"facil/internal/dram"
	"facil/internal/engine"
	"facil/internal/mapping"
	"facil/internal/pim"
	"facil/internal/soc"
)

// study is one design-choice ablation (DESIGN.md §4 names them
// ablations/<id>): its table's identity and static notes, plus the
// measurement that fills the table's rows (and any data-dependent
// notes).
type study struct {
	id, title string
	header    []string
	notes     []string
	measure   func(ctx context.Context, l *Lab, tab *Table) error
}

// run measures one study into its rendered table.
func (s study) run(ctx context.Context, l *Lab) (Table, error) {
	tab := Table{ID: "ablations/" + s.id, Title: s.title, Header: s.header, Notes: s.notes}
	if err := s.measure(ctx, l, &tab); err != nil {
		return Table{}, err
	}
	return tab, nil
}

// Ablations runs the eight ablation studies, each as a sweep point of
// its own (most fan out further inside), reducing in table order.
func (l *Lab) Ablations(ctx context.Context) ([]Table, error) {
	return sweep(ctx, l, "ablations", studies, func(ctx context.Context, s study) (Table, error) {
		return s.run(ctx, l)
	})
}

// studies is the ablation table, in rendered order.
var studies = []study{
	{
		// The two hybrid-baseline re-layout policies of the paper's
		// Sec. III footnote 2: on-demand re-layout per matrix (the
		// paper's baseline) versus re-laying all weights at each phase
		// transition, which pays a second full re-layout when returning
		// to the decode phase.
		id:     "relayout-policy",
		title:  "Ablation: hybrid re-layout policy, TTLT on Jetson (Llama3-8B)",
		header: []string{"prefill/decode", "on-demand", "all-at-once", "overhead"},
		notes:  []string{"all-at-once pays a second full re-layout when transitioning back to decode"},
		measure: func(_ context.Context, l *Lab, tab *Table) error {
			s, err := l.System(soc.Jetson)
			if err != nil {
				return err
			}
			re, err := s.RelayoutAllWeightsSeconds()
			if err != nil {
				return err
			}
			for _, pd := range [][2]int{{16, 16}, {16, 64}, {64, 64}, {128, 32}} {
				onDemand, err := s.TTLTStatic(engine.HybridStatic, pd[0], pd[1])
				if err != nil {
					return err
				}
				allAtOnce := onDemand + re
				tab.Rows = append(tab.Rows, []string{
					fmt.Sprintf("P%d/D%d", pd[0], pd[1]),
					fmt.Sprintf("%.3f s", onDemand),
					fmt.Sprintf("%.3f s", allAtOnce),
					x(allAtOnce / onDemand),
				})
			}
			return nil
		},
	},
	{
		// Each platform's profiled prefill-length crossover between the
		// PIM and SoC prefill routes, for the hybrid-dynamic baseline
		// and for FACIL (Sec. VI-C).
		id:     "offload-threshold",
		title:  "Ablation: profiled prefill offload thresholds (SoC beats PIM at L >= threshold)",
		header: []string{"platform", "hybrid dynamic", "FACIL"},
		notes:  []string{"FACIL's SoC route pays no re-layout, so it crosses over at shorter prefills"},
		measure: func(ctx context.Context, l *Lab, tab *Table) (err error) {
			tab.Rows, err = sweep(ctx, l, "ablation-thresholds", soc.All(), func(ctx context.Context, p soc.Platform) ([]string, error) {
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
			return err
		},
	},
	{
		// How the memory controller's FR-FCFS reorder window affects the
		// achieved re-layout bandwidth — the scheduling headroom the
		// baseline's re-layout cost estimate depends on.
		id:     "scheduler-window",
		title:  "Ablation: FR-FCFS reorder window vs re-layout bandwidth (Jetson memory)",
		header: []string{"window", "bandwidth", "row hit rate"},
		measure: func(ctx context.Context, l *Lab, tab *Table) error {
			// A 4 MiB mixed read(PIM)/write(conventional) burst stream,
			// as re-layout issues it.
			spec := dram.JetsonOrinLPDDR5
			mt, err := mapping.NewTable(mapping.MemoryConfig{Geometry: spec.Geometry, HugePageBytes: 2 << 20}, mapping.AiMChunk(spec.Geometry))
			if err != nil {
				return err
			}
			minID, _ := mt.Range()
			src, dst := mt.Lookup(minID), mt.Conventional()
			tb := uint64(spec.Geometry.TransferBytes)
			dstBase := uint64(spec.Geometry.CapacityBytes() / 2)
			reqs := make([]dram.Request, 0, 2*(4<<20)/tb)
			for pa := uint64(0); pa < 4<<20; pa += tb {
				ra, _ := src.Translate(pa)
				wa, _ := dst.Translate(dstBase + pa)
				reqs = append(reqs, dram.Request{Addr: ra}, dram.Request{Addr: wa, Write: true})
			}
			tab.Rows, err = sweep(ctx, l, "ablation-window", []int{1, 4, 16, 32, 128}, func(ctx context.Context, w int) ([]string, error) {
				// SliceSource replays enqueue by value, so sweep points
				// share the request slice without copies or write races.
				res, err := dram.MeasureStream(spec, dram.SliceSource(reqs), w)
				if err != nil {
					return nil, err
				}
				return []string{
					strconv.Itoa(w),
					fmt.Sprintf("%.1f GB/s", res.BandwidthGBs),
					pc(res.RowHitRate),
				}, nil
			})
			return err
		},
	},
	{
		// Open-row versus close-row (auto-precharge) bank management on
		// sequential and random traffic — the classic DRAM policy
		// tradeoff the re-layout and GEMM-stream models sit on top of.
		id:     "row-policy",
		title:  "Ablation: row-buffer policy vs traffic pattern (iPhone memory)",
		header: []string{"traffic", "open-row", "close-row (auto-precharge)"},
		notes:  []string{"close-row hides precharge latency on random traffic; open-row wins on streams"},
		measure: func(ctx context.Context, l *Lab, tab *Table) error {
			type combo struct {
				random bool
				policy dram.RowPolicy
			}
			points := []combo{{false, dram.OpenRow}, {false, dram.CloseRow}, {true, dram.OpenRow}, {true, dram.CloseRow}}
			bws, err := sweep(ctx, l, "ablation-rowpolicy", points, func(ctx context.Context, c combo) (string, error) {
				bw, err := rowPolicyBandwidth(c.policy, c.random)
				return fmt.Sprintf("%.1f GB/s", bw), err
			})
			if err != nil {
				return err
			}
			tab.Rows = [][]string{{"sequential", bws[0], bws[1]}, {"random", bws[2], bws[3]}}
			return nil
		},
	},
	{
		// Sequential-read bandwidth across candidate conventional
		// mappings, verifying the paper's choice of
		// row:rank:column:bank:channel (Sec. VI-A).
		id:     "conventional-mapping",
		title:  "Ablation: conventional mapping choice vs sequential read bandwidth (Jetson memory)",
		header: []string{"mapping (MSB->LSB)", "bandwidth", "of peak"},
		notes:  []string{"the paper verifies row:rank:column:bank:channel reaches near-peak sequential bandwidth"},
		measure: func(ctx context.Context, l *Lab, tab *Table) (err error) {
			spec := dram.JetsonOrinLPDDR5
			layouts := []string{
				"row:rank:column:bank:channel", // the paper's (channel bits at LSB)
				"row:rank:bank:column:channel",
				"row:column:rank:bank:channel",
				"row:rank:channel:bank:column", // column at LSB: single-bank streaks
				"channel:bank:rank:row:column", // interleave at MSB: pathological
			}
			tb := int64(spec.Geometry.TransferBytes)
			tab.Rows, err = sweep(ctx, l, "ablation-convmap", layouts, func(ctx context.Context, layout string) ([]string, error) {
				m, err := addr.FromLayout(spec.Geometry, layout)
				if err != nil {
					return nil, err
				}
				n := (8 << 20) / tb
				var i int64
				res, err := dram.MeasureStream(spec, func(r *dram.Request) bool {
					if i >= n {
						return false
					}
					a, _ := m.Translate(uint64(i) * uint64(tb))
					*r = dram.Request{Addr: a}
					i++
					return true
				}, 0)
				if err != nil {
					return nil, err
				}
				return []string{
					layout,
					fmt.Sprintf("%.1f GB/s", res.BandwidthGBs),
					pc(res.BandwidthGBs / spec.PeakBandwidthGBs()),
				}, nil
			})
			return err
		},
	},
	{
		// The DRAM-level effect of XOR bank hashing on pathological
		// strided traffic: a stride equal to one bank's row span
		// serializes on a single bank under the plain conventional
		// mapping, while folding row bits into the bank index restores
		// bank-level parallelism. The hash leaves FACIL's PIM mappings
		// untouched (lock-step placement needs clean PU bits), so the
		// two features compose per MapID.
		id:      "xor-hashing",
		title:   "Ablation: XOR bank hashing vs pathological stride bandwidth (iPhone memory)",
		header:  []string{"conventional mapping", "bandwidth", "of peak"},
		measure: measureXORHashing,
	},
	{
		// The concurrency of the GEMM weight stream in the Table III
		// layout-slowdown model: the PIM layout only hurts kernels whose
		// in-flight row coverage misaligns with the PU space, and the
		// default (RowsPerPass-aligned) operating point matches the
		// paper's small measured slowdowns.
		id:     "gemm-streams",
		title:  "Ablation: GEMM stream concurrency vs PIM-layout memory slowdown (Jetson)",
		header: []string{"streams", "memory slowdown"},
		notes:  []string{"0 = auto (RowsPerPass-aligned tile, the default operating point)"},
		measure: func(ctx context.Context, l *Lab, tab *Table) (err error) {
			op := soc.Linear{L: 16, In: 4096, Out: 4096, DTypeBytes: 2}
			tab.Rows, err = sweep(ctx, l, "ablation-streams", []int{32, 128, 0, 512, 1024}, func(ctx context.Context, streams int) ([]string, error) {
				mem, err := soc.MeasureMemSlowdown(soc.Jetson, op, soc.LayoutSlowdownConfig{Streams: streams})
				if err != nil {
					return nil, err
				}
				label := strconv.Itoa(streams)
				if streams == 0 {
					label = "auto"
				}
				return []string{label, pc(mem)}, nil
			})
			return err
		},
	},
	{
		// The PIM MAC cadence against the decode speedup over the ideal
		// NPU — the calibration behind the default of 6 burst cycles
		// (paper Fig. 3 implies ~3.3x). Each interval builds its own
		// (serial) lab, so intervals sweep independently.
		id:     "mac-interval",
		title:  "Ablation: PIM MAC interval calibration (Jetson, Llama3-8B, 64+64 tokens)",
		header: []string{"MAC interval (burst cycles)", "internal BW", "PIM vs ideal NPU"},
		notes:  []string{"default interval 6 reproduces the paper's Fig. 3 ratio (3.32x)"},
		measure: func(ctx context.Context, l *Lab, tab *Table) (err error) {
			tab.Rows, err = sweep(ctx, l, "ablation-mac", []int{2, 4, 6, 8, 12}, func(ctx context.Context, interval int) ([]string, error) {
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
			return err
		},
	},
}

// rowPolicyBandwidth streams 16384 sequential or uniformly random reads
// through a refresh-free iPhone controller under one row policy and
// returns the achieved bandwidth in GB/s.
func rowPolicyBandwidth(policy dram.RowPolicy, random bool) (float64, error) {
	spec := dram.IPhoneLPDDR5
	g := spec.Geometry
	ctl, err := dram.NewController(spec)
	if err != nil {
		return 0, err
	}
	ctl.SetRefreshEnabled(false)
	for i := 0; i < g.Channels; i++ {
		ctl.Channel(i).SetRowPolicy(policy)
	}
	rng := rand.New(rand.NewSource(77))
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
	cycles, err := ctl.Drain()
	if err != nil {
		return 0, err
	}
	bytes := float64(n * g.TransferBytes)
	return bytes / spec.Timing.Seconds(cycles) / 1e9, nil
}

// measureXORHashing runs a one-bank-row-span stride through the plain
// conventional mapping and through it with a 4-bit XOR bank hash.
func measureXORHashing(_ context.Context, _ *Lab, tab *Table) error {
	spec := dram.IPhoneLPDDR5
	g := spec.Geometry
	base, err := addr.Conventional(g)
	if err != nil {
		return err
	}
	hashed, err := addr.WithXOR(base, []addr.XORPair{
		{Target: addr.FieldBank, TargetBit: 0, RowBit: 0},
		{Target: addr.FieldBank, TargetBit: 1, RowBit: 1},
		{Target: addr.FieldBank, TargetBit: 2, RowBit: 2},
		{Target: addr.FieldBank, TargetBit: 3, RowBit: 3},
	})
	if err != nil {
		return err
	}
	stride := int64(g.RowBytes * g.BanksPerRank * g.Channels * g.RanksPerChannel)
	run := func(m addr.Translator) (float64, error) {
		var i int64
		res, err := dram.MeasureStream(spec, func(r *dram.Request) bool {
			if i >= 4096 {
				return false
			}
			a, _ := m.Translate(uint64(i*stride) % uint64(g.CapacityBytes()))
			*r = dram.Request{Addr: a, Arrival: i / int64(g.Channels)}
			i++
			return true
		}, 0)
		if err != nil {
			return 0, err
		}
		return res.BandwidthGBs, nil
	}
	plainBW, err := run(base)
	if err != nil {
		return err
	}
	hashedBW, err := run(hashed)
	if err != nil {
		return err
	}
	tab.Rows = [][]string{
		{"plain row:rank:column:bank:channel", fmt.Sprintf("%.1f GB/s", plainBW), pc(plainBW / spec.PeakBandwidthGBs())},
		{"with 4-bit XOR bank hash", fmt.Sprintf("%.1f GB/s", hashedBW), pc(hashedBW / spec.PeakBandwidthGBs())},
	}
	tab.Notes = []string{
		fmt.Sprintf("stride = %d B (one bank's row span); hashing recovers %.1fx bandwidth", stride, hashedBW/plainBW),
	}
	return nil
}
