package analyze

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/obs"
	"repro/internal/obs/causal"
)

// Report is the full analysis of one causal trace: correlated per-rekey
// records, per-class/per-size summaries, detected anomalies, and any
// causal-order violations found in the happens-before graph.
type Report struct {
	Rekeys    []*Rekey           `json:"rekeys"`
	Summary   []ClassSummary     `json:"summary"`
	Anomalies []Anomaly          `json:"anomalies"`
	Causal    []causal.Violation `json:"causal_violations,omitempty"`
}

// Analyze correlates, summarizes, and anomaly-checks a causal trace in one
// pass, and runs the happens-before checker over it.
func Analyze(events []obs.Event, opt Options) *Report {
	filtered := obs.FilterGroup(events, opt.Group)
	c := correlate(filtered)
	return &Report{
		Rekeys:    c.rekeys,
		Summary:   Summarize(c.rekeys),
		Anomalies: detectAnomalies(c, opt),
		Causal:    causal.Check(filtered),
	}
}

func fmtMs(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1000:
		return fmt.Sprintf("%.2fs", v/1000)
	case v >= 1:
		return fmt.Sprintf("%.1fms", v)
	default:
		return fmt.Sprintf("%.0fµs", v*1000)
	}
}

// WriteText renders the report for humans: the phase-decomposition summary
// table (the shape of the paper's figures), one line per correlated rekey,
// and the anomaly list.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintln(w, "== rekey phase decomposition (per class and group size) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "proto\tclass\tsize\trekeys\trecords\tp50\tp95\tmax\tflush\talign\tkga\tinstall\tfirst-send\tkga-rounds\tshares f/a/k/i")
	for _, s := range r.Summary {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f\t%.0f/%.0f/%.0f/%.0f%%\n",
			s.Proto, s.Class, s.Size, s.Rekeys, s.Records,
			fmtMs(s.TotalP50Ms), fmtMs(s.TotalP95Ms), fmtMs(s.TotalMaxMs),
			fmtMs(s.Mean.FlushMs), fmtMs(s.Mean.AlignMs), fmtMs(s.Mean.KGAMs),
			fmtMs(s.Mean.InstallMs), fmtMs(s.Mean.FirstSendMs), s.MeanKGARounds,
			s.Share.Flush*100, s.Share.Align*100, s.Share.KGA*100, s.Share.Install*100)
	}
	tw.Flush()

	fmt.Fprintf(w, "\n== correlated rekeys (%d) ==\n", len(r.Rekeys))
	for _, rk := range r.Rekeys {
		fmt.Fprintf(w, "rekey group=%s view=%s class=%s proto=%s epoch=%d size=%d nodes=%d complete=%v fully-phased=%v total=%s flush=%s align=%s kga=%s install=%s first-send=%s\n",
			rk.Group, rk.View, rk.Class, rk.Proto, rk.KeyEpoch, rk.Size,
			len(rk.Nodes), rk.Complete, rk.FullyPhased(),
			fmtMs(rk.GroupTotalMs), fmtMs(rk.Phases.FlushMs), fmtMs(rk.Phases.AlignMs),
			fmtMs(rk.Phases.KGAMs), fmtMs(rk.Phases.InstallMs), fmtMs(rk.Phases.FirstSendMs))
	}

	fmt.Fprintf(w, "\n== anomalies (%d) ==\n", len(r.Anomalies))
	for _, a := range r.Anomalies {
		fmt.Fprintln(w, a.String())
	}
	if len(r.Anomalies) == 0 {
		fmt.Fprintln(w, "none")
	}

	fmt.Fprintf(w, "\n== causal-order violations (%d) ==\n", len(r.Causal))
	for _, v := range r.Causal {
		fmt.Fprintln(w, v.String())
	}
	if len(r.Causal) == 0 {
		fmt.Fprintln(w, "none")
	}
}

// AnomalyLines renders the anomaly list as strings (for embedding in the
// chaos harness's violation dump).
func (r *Report) AnomalyLines() []string {
	out := make([]string, 0, len(r.Anomalies))
	for _, a := range r.Anomalies {
		out = append(out, a.String())
	}
	return out
}
