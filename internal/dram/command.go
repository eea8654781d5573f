package dram

// CommandKind enumerates DRAM commands the channel engine understands.
type CommandKind int

const (
	// CmdACT activates (opens) a row in one bank.
	CmdACT CommandKind = iota
	// CmdPRE precharges (closes) one bank.
	CmdPRE
	// CmdRD reads one burst from the open row.
	CmdRD
	// CmdWR writes one burst to the open row.
	CmdWR
	// CmdREFab performs an all-bank refresh on one rank.
	CmdREFab
	// CmdACTab activates the same row in every bank of a rank
	// (PIM all-bank mode).
	CmdACTab
	// CmdPREab precharges every bank of a rank.
	CmdPREab
	// CmdMACab issues a lock-step multiply-accumulate in every bank of a
	// rank: each bank reads one burst from its open row and feeds its
	// processing unit. The data stays inside the device, so the channel
	// data bus is NOT occupied.
	CmdMACab
	// CmdWRGB writes one burst into the PIM global (input) buffer of a
	// rank over the channel data bus.
	CmdWRGB
	// CmdRDMAC reads accumulated PU results out of a rank over the
	// channel data bus.
	CmdRDMAC
)

// String returns the conventional mnemonic.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREFab:
		return "REFab"
	case CmdACTab:
		return "ACTab"
	case CmdPREab:
		return "PREab"
	case CmdMACab:
		return "MACab"
	case CmdWRGB:
		return "WRGB"
	case CmdRDMAC:
		return "RDMAC"
	default:
		return "UNKNOWN"
	}
}
