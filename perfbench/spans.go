package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// span is one wall-clock span exported by an obs.WallTracer, in
// microseconds since the tracer started.
type span struct {
	layer, cat, name string
	start, end       float64
	trace, job       string
}

func (s span) ms() float64 { return (s.end - s.start) / 1e3 }

// exportSpans reads every span a tracer holds through its public Chrome-trace
// export, the same file /v1/jobs/{id}/trace serves.
func exportSpans(tr *obs.WallTracer) ([]span, error) {
	var buf bytes.Buffer
	if err := obs.WriteMergedTrace(&buf, "", tr, nil); err != nil {
		return nil, fmt.Errorf("export spans: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Cat  string            `json:"cat"`
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("export spans: %w", err)
	}
	layers := map[int]string{}
	var out []span
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			layers[e.Tid] = e.Args["name"]
		case e.Ph == "X":
			out = append(out, span{
				layer: layers[e.Tid], cat: e.Cat, name: e.Name,
				start: e.Ts, end: e.Ts + e.Dur,
				trace: e.Args["trace_id"], job: e.Args["job"],
			})
		}
	}
	return out, nil
}

// covered returns how much of [lo, hi] the given spans cover, counting
// overlapping spans once.
func covered(lo, hi float64, spans []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func filterSpans(spans []span, keep func(span) bool) []span {
	var out []span
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}
