package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct{ Key, Value string }

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) without any client library. It tracks which metric
// families have had their # HELP/# TYPE header written, so callers can
// interleave many labeled series of the same family freely. Errors are
// sticky; check Err once at the end.
type PromWriter struct {
	w     io.Writer
	typed map[string]bool
	err   error
}

// NewPromWriter returns a writer rendering to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders {k="v",...} including extra, or "" when empty.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter writes one counter sample. Use a _total-suffixed name.
func (p *PromWriter) Counter(name, help string, labels []Label, v uint64) {
	p.header(name, help, "counter")
	p.printf("%s%s %d\n", name, labelString(labels), v)
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name, help string, labels []Label, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s%s %s\n", name, labelString(labels), formatFloat(v))
}

// Histogram writes one histogram series: cumulative _bucket samples in
// seconds (only buckets that add observations are emitted — sparse but
// still monotone — plus the mandatory +Inf), then _sum and _count.
// _count equals the +Inf bucket and sum(Buckets) by construction.
func (p *PromWriter) Histogram(name, help string, labels []Label, s HistSnapshot) {
	p.histogram(name, help, labels, s, 1e9)
}

// RawHistogram is Histogram without the nanoseconds→seconds
// conversion: bucket bounds and the sum are emitted in the snapshot's
// own unit. For histograms that count things rather than time them —
// e.g. the WAL's commits-per-fsync group sizes — where dividing by 1e9
// would be nonsense.
func (p *PromWriter) RawHistogram(name, help string, labels []Label, s HistSnapshot) {
	p.histogram(name, help, labels, s, 1)
}

// histogram writes one series with bucket bounds and the sum divided by
// scale.
func (p *PromWriter) histogram(name, help string, labels []Label, s HistSnapshot, scale float64) {
	p.header(name, help, "histogram")
	var cum uint64
	for i := 0; i < NumBuckets-1; i++ {
		c := s.Buckets[i]
		if c == 0 {
			continue
		}
		cum += c
		le := formatFloat(float64(BucketUpper(i)) / scale)
		p.printf("%s_bucket%s %d\n", name, labelString(labels, Label{"le", le}), cum)
	}
	p.printf("%s_bucket%s %d\n", name, labelString(labels, Label{"le", "+Inf"}), s.Count)
	p.printf("%s_sum%s %s\n", name, labelString(labels), formatFloat(float64(s.Sum)/scale))
	p.printf("%s_count%s %d\n", name, labelString(labels), s.Count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
