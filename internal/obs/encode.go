// Prometheus-text-format and JSON snapshot encoders over a Registry.
// Encoding allocates freely — it runs on the admin endpoint, never on
// a report path.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteProm encodes every registered instrument in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE header per
// metric name, label variants grouped under it, histograms expanded to
// cumulative _bucket{le=…} series plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastName string
	for _, m := range r.snapshotMetrics() {
		if m.name != lastName {
			lastName = m.name
			typ := "counter"
			switch m.kind {
			case kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, typ)
		}
		switch m.kind {
		case kindCounter:
			writeSample(bw, m.name, m.labels, "", formatUint(m.counter.Value()))
		case kindGaugeFunc:
			v := 0.0
			if m.gaugeFn != nil {
				v = m.gaugeFn()
			}
			writeSample(bw, m.name, m.labels, "", formatFloat(v))
		case kindHistogram:
			writeHistogram(bw, m)
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels,extra} value` line; labels and
// extra may each be empty.
func writeSample(w io.Writer, name, labels, extra, value string) {
	io.WriteString(w, name)
	if labels != "" || extra != "" {
		io.WriteString(w, "{")
		io.WriteString(w, labels)
		if labels != "" && extra != "" {
			io.WriteString(w, ",")
		}
		io.WriteString(w, extra)
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	io.WriteString(w, value)
	io.WriteString(w, "\n")
}

// writeHistogram expands one histogram into its cumulative bucket
// series. Latency bounds are stored in nanoseconds and exposed in
// seconds; a CountHistogram's are exposed as stored.
func writeHistogram(w io.Writer, m *metric) {
	h := m.hist
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := `le="` + formatFloat(float64(b)/h.scale) + `"`
		writeSample(w, m.name+"_bucket", m.labels, le, formatUint(cum))
	}
	// +Inf must equal _count even when observations raced the bucket
	// loads above; re-load count last so the invariant cum ≤ count holds
	// and +Inf is authoritative.
	count := h.count.Load()
	if count < cum {
		count = cum
	}
	writeSample(w, m.name+"_bucket", m.labels, `le="+Inf"`, formatUint(count))
	writeSample(w, m.name+"_sum", m.labels, "", formatFloat(h.exposedSum()))
	writeSample(w, m.name+"_count", m.labels, "", formatUint(count))
}

func formatUint(v uint64) string   { return strconv.FormatUint(v, 10) }
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot flattens the registry into sample-name → value pairs using
// the same sample names the Prometheus encoding produces (histograms
// contribute their _count and _sum; buckets are omitted). It is the
// machine-readable form /statusz embeds and the harness scrape diffs.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.snapshotMetrics() {
		key := m.name
		if m.labels != "" {
			key += "{" + m.labels + "}"
		}
		switch m.kind {
		case kindCounter:
			out[key] = float64(m.counter.Value())
		case kindGaugeFunc:
			if m.gaugeFn != nil {
				out[key] = m.gaugeFn()
			} else {
				out[key] = 0
			}
		case kindHistogram:
			countKey, sumKey := m.name+"_count", m.name+"_sum"
			if m.labels != "" {
				countKey += "{" + m.labels + "}"
				sumKey += "{" + m.labels + "}"
			}
			out[countKey] = float64(m.hist.Count())
			out[sumKey] = m.hist.exposedSum()
		}
	}
	return out
}

// WriteJSON encodes Snapshot as one JSON object with sorted keys
// (encoding/json sorts map keys), terminated by a newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
