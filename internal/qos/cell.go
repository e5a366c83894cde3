package qos

import "mccp/internal/sim"

// ClassCell is one class's result over a measurement window — the four
// questions every open-loop experiment asks of a traffic class: what
// was offered, what was delivered, what was lost, and at what latency.
// The in-process load curves, the cluster open-loop drivers and the
// wire-level tables all report it.
type ClassCell struct {
	Class Class
	// Verdict counters. Shed includes Expired and Aged; Failed counts
	// every other error (auth failures included); Misses counts
	// completions past their deadline tag.
	Submitted, Completed, Rejected, Shed, Expired, Aged, Failed, Misses uint64
	// LossFrac is (Submitted-Completed)/Submitted — every arrival that
	// was never delivered.
	LossFrac float64
	// P50 and P99 are nearest-rank latency percentiles in cycles over
	// Samples.
	P50, P99 sim.Time
	// OfferedMbps and DeliveredMbps are payload rates over the window at
	// the modeled clock (0 where the window has no horizon, or the
	// source does not meter offered volume).
	OfferedMbps, DeliveredMbps float64
	// Samples holds the raw latency samples behind the percentiles
	// (sorted), so callers can merge distributions across windows
	// instead of comparing per-window percentiles.
	Samples []sim.Time
}

// NewClassCell reduces one class's counters and latency samples over a
// window of horizon cycles; offeredBytes and deliveredBytes are the
// payload volumes behind the Mbps rates. The cell keeps samples and
// sorts them in place.
func NewClassCell(st ClassStats, samples []sim.Time, offeredBytes, deliveredBytes uint64, horizon sim.Time) ClassCell {
	c := ClassCell{
		Class:     st.Class,
		Submitted: st.Submitted,
		Completed: st.Completed,
		Rejected:  st.Rejected,
		Shed:      st.Shed,
		Expired:   st.Expired,
		Aged:      st.Aged,
		Failed:    st.Failed,
		Misses:    st.DeadlineMisses,
		P50:       PercentileOf(samples, 50),
		P99:       PercentileOf(samples, 99),
		Samples:   samples,
	}
	if st.Submitted > 0 {
		c.LossFrac = float64(st.Submitted-st.Completed) / float64(st.Submitted)
	}
	if horizon > 0 {
		c.OfferedMbps = MbpsOver(offeredBytes, horizon)
		c.DeliveredMbps = MbpsOver(deliveredBytes, horizon)
	}
	return c
}

// Stats returns the cell's verdict counters as a ClassStats, so cells
// from several windows merge through ClassStats.Accumulate.
func (c ClassCell) Stats() ClassStats {
	return ClassStats{
		Class:          c.Class,
		Submitted:      c.Submitted,
		Completed:      c.Completed,
		Rejected:       c.Rejected,
		Shed:           c.Shed,
		Expired:        c.Expired,
		Aged:           c.Aged,
		Failed:         c.Failed,
		DeadlineMisses: c.Misses,
	}
}

// MbpsOver converts a payload volume moved in horizon cycles to Mbit/s
// at the modeled clock.
func MbpsOver(bytes uint64, horizon sim.Time) float64 {
	return float64(bytes*8) / float64(horizon) * sim.DefaultFreqHz / 1e6
}

// Cells is a per-class result row, one cell per class.
type Cells []ClassCell

// Cell returns the cell for a class (a zero cell if absent).
func (cs Cells) Cell(c Class) ClassCell {
	for _, cell := range cs {
		if cell.Class == c {
			return cell
		}
	}
	return ClassCell{Class: c}
}

// LossFrac is the row's overall loss: arrivals never delivered over all
// arrivals, across classes.
func (cs Cells) LossFrac() float64 {
	var submitted, completed uint64
	for _, c := range cs {
		submitted += c.Submitted
		completed += c.Completed
	}
	if submitted == 0 {
		return 0
	}
	return float64(submitted-completed) / float64(submitted)
}

// DeliveredMbps sums the row's delivered rates in cell order.
func (cs Cells) DeliveredMbps() float64 {
	total := 0.0
	for _, c := range cs {
		total += c.DeliveredMbps
	}
	return total
}
