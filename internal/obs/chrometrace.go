package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome trace-event export. The output is the Trace Event Format's "JSON
// Object Format" ({"traceEvents": [...]}), loadable in chrome://tracing and
// Perfetto (ui.perfetto.dev). One simulated core maps to one process (pid)
// and each pipeline stage to one named thread track (tid) inside it; one
// simulated cycle maps to one microsecond of trace time, so "1 ms" on the
// Perfetto timeline reads as 1000 cycles.
//
// Determinism: every emitted value is a struct (encoding/json marshals
// struct fields in declaration order) and events are walked core-by-core in
// ring order, so the same trace always serialises to the same bytes.

// Track ids (tid) within a core's process. Stage-lifecycle tracks first, in
// pipeline order, then the SpecASan-specific tracks.
const (
	TrackFetch = iota
	TrackDispatch
	TrackIssue
	TrackExec
	TrackMem
	TrackCommit
	TrackSquash
	TrackTagDelay
	TrackLFB
	TrackRisk

	numTracks
)

var trackNames = [numTracks]string{
	TrackFetch:    "fetch",
	TrackDispatch: "dispatch",
	TrackIssue:    "issue",
	TrackExec:     "exec",
	TrackMem:      "mem",
	TrackCommit:   "commit",
	TrackSquash:   "squash",
	TrackTagDelay: "specasan-tag-delay",
	TrackLFB:      "lfb-stall",
	TrackRisk:     "risk-queue",
}

// ChromeEvent is one trace-event record. Ph is the event phase: "M"
// (metadata), "X" (complete span, with Dur), or "i" (instant, with S scope).
type ChromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   uint64      `json:"ts"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Dur  uint64      `json:"dur,omitempty"`
	S    string      `json:"s,omitempty"`
	Args *ChromeArgs `json:"args,omitempty"`
}

// ChromeArgs carries the per-event payload shown in the Perfetto detail
// panel. Meta is set only on "M" metadata events (track/process names).
type ChromeArgs struct {
	Seq  uint64 `json:"seq,omitempty"`
	PC   string `json:"pc,omitempty"`
	Arg  uint64 `json:"arg,omitempty"`
	Meta string `json:"name,omitempty"`
}

// ChromeTrace is the top-level trace object.
type ChromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent `json:"traceEvents"`
}

// BuildChromeTrace converts the tracer's retained events into a trace
// object. Span reconstruction uses only information inside single events
// (EvCommit and EvTagDelayEnd carry their own durations), so a ring that
// wrapped and lost early events still yields a well-formed trace.
func BuildChromeTrace(tr *Tracer) *ChromeTrace {
	ct := &ChromeTrace{DisplayTimeUnit: "ms"}
	for i := 0; i < tr.Cores(); i++ {
		core := tr.Core(i)
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: i,
			Args: &ChromeArgs{Meta: fmt.Sprintf("core%d", i)},
		})
		for tid, tn := range trackNames {
			ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: i, Tid: tid,
				Args: &ChromeArgs{Meta: tn},
			})
		}
		for _, ev := range core.Events() {
			ct.TraceEvents = append(ct.TraceEvents, chromeFromEvent(i, ev))
		}
	}
	return ct
}

// kindTrack places each event kind on its core's stage track.
var kindTrack = [numEventKinds]int{
	EvFetch: TrackFetch, EvDispatch: TrackDispatch, EvIssue: TrackIssue, EvExec: TrackExec,
	EvMem: TrackMem, EvCommit: TrackCommit, EvSquash: TrackSquash,
	EvTagDelayStart: TrackTagDelay, EvTagDelayEnd: TrackTagDelay, EvLFBStall: TrackLFB,
	EvRiskMark: TrackRisk, EvRiskClear: TrackRisk,
}

// chromeFromEvent maps one ring event to its trace-event record. Events
// that carry a duration (EvCommit: issue→commit; EvTagDelayEnd: the held
// window; EvLFBStall: the fill wait) become "X" spans ending at the
// recorded cycle (the LFB stall starts there); everything else is an
// instant, with its Arg shown where it carries one.
func chromeFromEvent(pid int, ev Event) ChromeEvent {
	ce := ChromeEvent{Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle, S: "t", Pid: pid, Tid: kindTrack[ev.Kind],
		Args: &ChromeArgs{Seq: ev.Seq, PC: fmt.Sprintf("0x%x", ev.PC)}}
	switch ev.Kind {
	case EvCommit:
		lat := ev.IssueToCommit()
		ce.Name, ce.Ph, ce.S, ce.Ts, ce.Dur = "inflight", "X", "", ev.Cycle-lat, spanDur(lat)
		ce.Args.Arg = ev.Cycle - ev.Completed() // cycles done but not yet retired
	case EvTagDelayEnd:
		ce.Name, ce.Ph, ce.S, ce.Ts, ce.Dur = "tag-delay", "X", "", ev.Cycle-ev.Arg, spanDur(ev.Arg)
		ce.Args.Arg = ev.Arg
	case EvLFBStall:
		ce.Ph, ce.S, ce.Dur = "X", "", spanDur(ev.Arg)
		ce.Args.Arg = ev.Arg
	case EvMem, EvTagDelayStart, EvSquash:
		ce.Args.Arg = ev.Arg // stripped address, key<<4|lock, mispredicted branch
	}
	return ce
}

// spanDur keeps zero-length spans visible: Perfetto drops dur=0 slices.
func spanDur(d uint64) uint64 {
	if d == 0 {
		return 1
	}
	return d
}

// WriteChromeTrace serialises the tracer as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, tr *Tracer) error {
	data, err := json.MarshalIndent(BuildChromeTrace(tr), "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteChromeTraceFile writes the tracer's Chrome trace-event JSON to path.
func WriteChromeTraceFile(path string, tr *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
