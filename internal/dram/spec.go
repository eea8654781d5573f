package dram

import "fmt"

// Spec bundles a named DRAM configuration: geometry, timing and the
// data-rate it was derived from.
type Spec struct {
	// Name identifies the preset, e.g. "LPDDR5-6400 256-bit".
	Name string
	// Geometry is the physical organization.
	Geometry Geometry
	// Timing holds the burst-cycle timing constraints.
	Timing Timing
	// DataRateMbps is the per-pin transfer rate.
	DataRateMbps int
	// ChannelWidthBits is the data width of one channel.
	ChannelWidthBits int
}

// Validate checks geometry and timing together. Errors wrap ErrConfig
// (directly or through the field validators).
func (s Spec) Validate() error {
	if err := s.Geometry.Validate(); err != nil {
		return fmt.Errorf("spec %q: %w", s.Name, err)
	}
	if err := s.Timing.Validate(); err != nil {
		return fmt.Errorf("spec %q: %w", s.Name, err)
	}
	if s.DataRateMbps <= 0 {
		return fmt.Errorf("%w: spec %q: DataRateMbps must be positive", ErrConfig, s.Name)
	}
	if s.ChannelWidthBits <= 0 {
		return fmt.Errorf("%w: spec %q: ChannelWidthBits must be positive", ErrConfig, s.Name)
	}
	return nil
}

// PeakBandwidthGBs returns the theoretical peak bandwidth of the whole
// memory system in GB/s (10^9 bytes per second).
func (s Spec) PeakBandwidthGBs() float64 {
	bytesPerSec := float64(s.DataRateMbps) * 1e6 / 8 * float64(s.ChannelWidthBits) *
		float64(s.Geometry.Channels)
	return bytesPerSec / 1e9
}

// burstCycleNS computes the duration of one burst on one channel:
// TransferBytes at DataRateMbps over ChannelWidthBits pins.
func burstCycleNS(transferBytes, widthBits, dataRateMbps int) float64 {
	beats := float64(transferBytes*8) / float64(widthBits)
	return beats / (float64(dataRateMbps) * 1e-3) // Mbps -> bits/ns per pin
}

// LPDDR5 returns an LPDDR5 spec with the given total bus width in bits
// (width/16 channels), per-pin data rate in Mbps, ranks per channel and
// total capacity in bytes. Banks per rank is 16 (bank-group mode).
func LPDDR5(name string, busWidthBits, dataRateMbps, ranksPerChannel int, capacityBytes int64) (Spec, error) {
	const channelWidth = 16
	const rowBytes = 2048
	const transferBytes = 32 // BL16 x16
	const banksPerRank = 16
	if busWidthBits%channelWidth != 0 {
		return Spec{}, fmt.Errorf("%w: LPDDR5 bus width %d not a multiple of %d", ErrConfig, busWidthBits, channelWidth)
	}
	channels := busWidthBits / channelWidth
	g := Geometry{
		Channels:        channels,
		RanksPerChannel: ranksPerChannel,
		BanksPerRank:    banksPerRank,
		RowBytes:        rowBytes,
		TransferBytes:   transferBytes,
	}
	perBank := capacityBytes / int64(g.Channels*g.RanksPerChannel*g.BanksPerRank)
	rows := perBank / rowBytes
	if rows <= 0 || rows&(rows-1) != 0 {
		return Spec{}, fmt.Errorf("%w: capacity %d does not yield a power-of-two row count (got %d rows/bank)", ErrConfig, capacityBytes, rows)
	}
	g.Rows = int(rows)
	cyc := burstCycleNS(transferBytes, channelWidth, dataRateMbps)
	s := Spec{
		Name:             name,
		Geometry:         g,
		Timing:           timingFromNS(cyc, lpddr5NS),
		DataRateMbps:     dataRateMbps,
		ChannelWidthBits: channelWidth,
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// presetLPDDR5 builds a package-level preset without panicking: a
// mis-declared preset yields a named-but-invalid Spec whose first use
// fails Spec.Validate (every consumer validates), so configuration
// errors stay recoverable instead of crashing process init.
func presetLPDDR5(name string, busWidthBits, dataRateMbps, ranksPerChannel int, capacityBytes int64) Spec {
	s, err := LPDDR5(name, busWidthBits, dataRateMbps, ranksPerChannel, capacityBytes)
	if err != nil {
		return Spec{Name: name}
	}
	return s
}

// GiB is a capacity helper.
const GiB = int64(1) << 30

// Presets matching the paper's Table II memory systems.
var (
	// JetsonOrinLPDDR5 is a 256-bit LPDDR5-6400, 64 GB, 2 ranks/channel
	// system (NVIDIA Jetson AGX Orin 64GB, 204.8 GB/s peak).
	JetsonOrinLPDDR5 = presetLPDDR5("LPDDR5-6400 256-bit (Jetson AGX Orin)", 256, 6400, 2, 64*GiB)
	// MacbookLPDDR5 is a 512-bit LPDDR5-6400, 64 GB system
	// (Apple MacBook Pro M3 Max, 409.6 GB/s peak).
	MacbookLPDDR5 = presetLPDDR5("LPDDR5-6400 512-bit (MacBook Pro M3 Max)", 512, 6400, 2, 64*GiB)
	// IdeaPadLPDDR5X is a 64-bit LPDDR5X-7467, 32 GB system
	// (Lenovo IdeaPad Slim 5, 59.7 GB/s peak).
	IdeaPadLPDDR5X = presetLPDDR5("LPDDR5X-7467 64-bit (IdeaPad Slim 5)", 64, 7467, 2, 32*GiB)
	// IPhoneLPDDR5 is a 64-bit LPDDR5-6400, 8 GB system
	// (Apple iPhone 15 Pro, 51.2 GB/s peak).
	IPhoneLPDDR5 = presetLPDDR5("LPDDR5-6400 64-bit (iPhone 15 Pro)", 64, 6400, 2, 8*GiB)
)
