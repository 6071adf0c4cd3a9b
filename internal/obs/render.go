package obs

import (
	"fmt"
	"sort"
	"strings"
)

// FlowSummary describes one flow's extent in the span log.
type FlowSummary struct {
	Flow     FlowID
	Root     string // name of the flow's first span
	Start    int64  // earliest span start (virtual ns)
	End      int64  // latest span end; Start for fully-open flows
	Duration int64  // End - Start
	Longest  int64  // longest single completed span in the flow
	Spans    int
	Open     int // spans never ended (End < 0)
}

// Flows groups spans by FlowID and returns per-flow summaries sorted
// "slowest first" by Longest — the longest single span in the flow —
// descending; ties break on (Start, Flow) so the order is deterministic.
//
// Ranking by longest span rather than flow extent keeps long-lived
// connection flows (an LTL connection accumulates spans for the whole
// run, so its extent is the run length) from burying the flows a
// slow-query hunt wants: a tail request's svclb.request span dwarfs any
// single span on a connection.
func Flows(spans []Span) []FlowSummary {
	byFlow := make(map[FlowID]*FlowSummary)
	var order []FlowID
	for _, sp := range spans {
		if sp.Flow == 0 {
			continue
		}
		fs := byFlow[sp.Flow]
		if fs == nil {
			fs = &FlowSummary{Flow: sp.Flow, Root: sp.Name, Start: sp.Start, End: sp.Start}
			byFlow[sp.Flow] = fs
			order = append(order, sp.Flow)
		}
		fs.Spans++
		if sp.Start < fs.Start {
			fs.Start = sp.Start
		}
		if sp.End < 0 {
			fs.Open++
		} else {
			if sp.End > fs.End {
				fs.End = sp.End
			}
			if d := sp.End - sp.Start; d > fs.Longest {
				fs.Longest = d
			}
		}
	}
	out := make([]FlowSummary, 0, len(order))
	for _, f := range order {
		fs := byFlow[f]
		fs.Duration = fs.End - fs.Start
		out = append(out, *fs)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Longest != b.Longest {
			return a.Longest > b.Longest
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Flow < b.Flow
	})
	return out
}

const (
	barWidth = 40
	// renderSpanCap bounds one flow's rendered span lines; request flows
	// have a few dozen spans, so only degenerate flows (long-lived
	// connections) hit it.
	renderSpanCap = 64
)

// RenderFlow renders every span of one flow as indented waterfall text:
// children indent under their parents, and a scaled bar shows each
// span's position within the flow's extent. Open spans render with a
// trailing "…open". Spans appear in creation order, which on a single
// deterministic clock is also start order.
func RenderFlow(spans []Span, flow FlowID) string {
	var fl []Span
	depth := make(map[SpanID]int)
	start, end := int64(0), int64(0)
	first := true
	for _, sp := range spans {
		if sp.Flow != flow {
			continue
		}
		d := 0
		if pd, ok := depth[sp.Parent]; ok && sp.Parent != 0 {
			d = pd + 1
		}
		depth[sp.ID] = d
		fl = append(fl, sp)
		if first {
			start, end = sp.Start, sp.Start
			first = false
		}
		if sp.Start < start {
			start = sp.Start
		}
		if sp.End > end {
			end = sp.End
		}
	}
	if len(fl) == 0 {
		return ""
	}
	span := end - start
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flow %016x  %d spans  [%d ns .. %d ns]  %.3fus\n",
		uint64(flow), len(fl), start, end, float64(end-start)/1000)
	trimmed := 0
	if len(fl) > renderSpanCap {
		trimmed = len(fl) - renderSpanCap
		fl = fl[:renderSpanCap]
	}
	for _, sp := range fl {
		off := int((sp.Start - start) * barWidth / span)
		if off >= barWidth {
			off = barWidth - 1
		}
		var w int
		open := sp.End < 0
		if open {
			w = barWidth - off
		} else {
			w = int((sp.End - sp.Start) * barWidth / span)
		}
		if w < 1 {
			w = 1
		}
		if off+w > barWidth {
			w = barWidth - off
		}
		bar := strings.Repeat(" ", off) + strings.Repeat("█", w) +
			strings.Repeat(" ", barWidth-off-w)
		dur := "…open"
		if !open {
			dur = fmt.Sprintf("%.3fus", float64(sp.End-sp.Start)/1000)
		}
		name := strings.Repeat("  ", depth[sp.ID]) + sp.Name
		fmt.Fprintf(&b, "  %-28s |%s| @%-10d %s", name, bar, sp.Start-start, dur)
		if sp.Arg != 0 {
			fmt.Fprintf(&b, "  arg=%d", sp.Arg)
		}
		b.WriteByte('\n')
	}
	if trimmed > 0 {
		fmt.Fprintf(&b, "  … (+%d more spans)\n", trimmed)
	}
	return b.String()
}

// Waterfall renders the n slowest flows in the span log.
func Waterfall(spans []Span, n int) string {
	fls := Flows(spans)
	if n > len(fls) {
		n = len(fls)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(RenderFlow(spans, fls[i].Flow))
	}
	return b.String()
}
