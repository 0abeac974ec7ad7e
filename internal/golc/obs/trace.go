package obs

import (
	"encoding/json"
	"io"
)

// TraceProc is one process track in a Chrome trace dump: a named group
// of events (one runtime). Event shards become the
// track's threads, which in practice separates concurrent goroutines'
// timelines.
type TraceProc struct {
	Pid    int
	Name   string
	Events []Event
}

// chromeEvent is the Trace Event Format's JSON shape (the subset
// Perfetto and chrome://tracing consume). Timestamps and durations are
// microseconds; fractional values are allowed, so nanosecond precision
// survives.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the processes' events as Chrome tracing
// JSON (the "JSON object format"), loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Span events (Dur > 0) become
// complete slices covering [TS-Dur, TS]; everything else becomes a
// thread-scoped instant.
func WriteChromeTrace(w io.Writer, procs []TraceProc) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ns"}
	for _, proc := range procs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  proc.Pid,
			Args: map[string]any{"name": proc.Name},
		})
		for _, e := range proc.Events {
			ce := chromeEvent{
				Name: e.Type.String(),
				Cat:  "golc",
				Pid:  proc.Pid,
				Tid:  int(e.Shard),
			}
			args := make(map[string]any, 3)
			if e.Name != "" {
				args["name"] = e.Name
			}
			if e.Label != "" {
				args["label"] = e.Label
			}
			if e.Arg != 0 {
				args["arg"] = e.Arg
			}
			if len(args) > 0 {
				ce.Args = args
			}
			if e.Dur > 0 {
				ce.Ph = "X"
				ce.TS = float64(e.TS-e.Dur) / 1e3
				ce.Dur = float64(e.Dur) / 1e3
			} else {
				ce.Ph = "i"
				ce.S = "t"
				ce.TS = float64(e.TS) / 1e3
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
