// Package obs is the simulator's observability layer: a zero-cost-when-off
// per-core event trace of each instruction's pipeline lifecycle (plus the
// SpecASan-specific events the paper's argument turns on — tag-check delays,
// LFB stalls, risk marks), a metrics registry of labelled histograms layered
// on internal/stats, and the views over them: Chrome trace-event JSON, a
// one-line-per-event text listing, a pipeline timeline and a JSONL metrics
// stream. The event ring is the detailed core's only observer; every view
// reads it after the run.
//
// The design contract mirrors gem5's --debug-flags machinery: hooks in
// internal/cpu and internal/cache are nil-guarded pointers, so a simulator
// with tracing disabled pays one pointer compare per hook site and allocates
// nothing. With tracing enabled, recording is a single store into a
// preallocated ring buffer — still allocation-free in steady state, so the
// trace can stay attached for the whole run.
package obs

import "math"

// EventKind identifies one pipeline or policy event.
type EventKind uint8

// The event kinds. Stage-lifecycle events carry the instruction's sequence
// number and PC; the Arg field is kind-specific (see each constant).
const (
	// EvFetch: an instruction left the front end's fetch stage. Seq is 0
	// (sequence numbers are assigned at dispatch); PC identifies it.
	EvFetch EventKind = iota
	// EvDispatch: renamed and inserted into the ROB/IQ.
	EvDispatch
	// EvIssue: selected for execution (operands ready, port available).
	EvIssue
	// EvExec: began executing on a functional unit.
	EvExec
	// EvMem: issued a data-side cache access. Arg is the stripped address.
	EvMem
	// EvCommit: retired architecturally. Arg packs two waits (CommitArg):
	// the issue-to-commit latency in its low 32 bits and the
	// completion-to-commit wait in its high 32 (see IssueToCommit and
	// Completed).
	EvCommit
	// EvSquash: flushed from the pipeline before commit. Arg is the
	// sequence number of the branch whose mispredicted resolution squashed
	// it, 0 for any other squash (a fault, a memory-order replay, an
	// injected flush).
	EvSquash
	// EvTagDelayStart: SpecASan held an unsafe speculative access (SSA=0);
	// the ROB entry waits for speculation to resolve. Arg is the pointer's
	// key and the granule's lock as two hex digits, key<<4 | lock (0xab:
	// key 0xa, lock 0xb).
	EvTagDelayStart
	// EvTagDelayEnd: the delayed access replayed. Arg is the delay in cycles.
	EvTagDelayEnd
	// EvLFBStall: a cache access waited on an in-flight line-fill-buffer
	// entry. Arg is the number of stall cycles.
	EvLFBStall
	// EvRiskMark: the entry entered the core's risk queue (pending fault,
	// assist, or false store-to-load forward).
	EvRiskMark
	// EvRiskClear: the entry left the risk queue (committed or squashed).
	EvRiskClear

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvFetch:         "fetch",
	EvDispatch:      "dispatch",
	EvIssue:         "issue",
	EvExec:          "exec",
	EvMem:           "mem",
	EvCommit:        "commit",
	EvSquash:        "squash",
	EvTagDelayStart: "tag-delay-start",
	EvTagDelayEnd:   "tag-delay-end",
	EvLFBStall:      "lfb-stall",
	EvRiskMark:      "risk-mark",
	EvRiskClear:     "risk-clear",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "event(?)"
}

// Event is one recorded trace event. The struct is plain data (no pointers)
// so the ring buffer is a flat allocation the garbage collector never scans.
type Event struct {
	Cycle uint64
	Seq   uint64
	PC    uint64
	Arg   uint64
	Kind  EventKind
}

// CommitArg packs an EvCommit's Arg. Both waits fit 32 bits: the watchdog
// stops a run whose ROB head stalls, so no instruction waits that long.
func CommitArg(issueToCommit, completeToCommit uint64) uint64 {
	return issueToCommit | completeToCommit<<32
}

// IssueToCommit returns an EvCommit's issue-to-commit latency.
func (ev Event) IssueToCommit() uint64 { return ev.Arg & math.MaxUint32 }

// Completed returns the cycle an EvCommit's instruction completed.
func (ev Event) Completed() uint64 { return ev.Cycle - ev.Arg>>32 }

// CoreTrace is a bounded single-writer ring buffer of events for one core.
// The simulator ticks each core from a single goroutine, so recording needs
// no synchronisation (machines running concurrently in a sweep each own
// their tracer). When the ring fills, the oldest events are overwritten and
// counted in Dropped.
type CoreTrace struct {
	coreID int
	buf    []Event
	n      uint64 // total events ever recorded
}

// DefaultTraceCapacity bounds a core's ring when the caller passes 0:
// large enough for full small-kernel runs, small enough to stay cheap.
const DefaultTraceCapacity = 1 << 18

// NewCoreTrace returns a trace ring for core id with the given capacity
// (0 = DefaultTraceCapacity).
func NewCoreTrace(id, capacity int) *CoreTrace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &CoreTrace{coreID: id, buf: make([]Event, capacity)}
}

// Record appends one event. It never allocates: the hot-path cost is one
// slot store and two counter updates.
func (t *CoreTrace) Record(cycle, seq, pc uint64, kind EventKind, arg uint64) {
	t.buf[t.n%uint64(len(t.buf))] = Event{Cycle: cycle, Seq: seq, PC: pc, Arg: arg, Kind: kind}
	t.n++
}

// CoreID returns the owning core's index.
func (t *CoreTrace) CoreID() int { return t.coreID }

// Len returns the number of events currently held (≤ capacity).
func (t *CoreTrace) Len() int {
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Recorded returns the total number of events ever recorded.
func (t *CoreTrace) Recorded() uint64 { return t.n }

// Dropped returns how many events were overwritten by ring wraparound.
func (t *CoreTrace) Dropped() uint64 {
	if t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the retained events oldest-first. The slice is freshly
// allocated; call once at export time, not per cycle.
func (t *CoreTrace) Events() []Event {
	if t.n <= uint64(len(t.buf)) {
		return append([]Event(nil), t.buf[:t.n]...)
	}
	start := t.n % uint64(len(t.buf))
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// Tracer holds one CoreTrace per simulated core plus the machine-shared
// cache hierarchy's view into them (the hierarchy records LFB stalls into
// the requesting core's ring).
type Tracer struct {
	cores []*CoreTrace
}

// NewTracer builds a tracer for n cores with the given per-core ring
// capacity (0 = DefaultTraceCapacity).
func NewTracer(n, capacity int) *Tracer {
	tr := &Tracer{cores: make([]*CoreTrace, n)}
	for i := range tr.cores {
		tr.cores[i] = NewCoreTrace(i, capacity)
	}
	return tr
}

// Core returns core i's trace ring (nil when out of range, so callers on
// shared structures can stay unconditional).
func (tr *Tracer) Core(i int) *CoreTrace {
	if tr == nil || i < 0 || i >= len(tr.cores) {
		return nil
	}
	return tr.cores[i]
}

// Cores returns the number of per-core rings.
func (tr *Tracer) Cores() int { return len(tr.cores) }

// Recorded sums the events ever recorded across cores.
func (tr *Tracer) Recorded() uint64 {
	var n uint64
	for _, c := range tr.cores {
		n += c.Recorded()
	}
	return n
}

// Dropped sums ring-overwritten events across cores.
func (tr *Tracer) Dropped() uint64 {
	var n uint64
	for _, c := range tr.cores {
		n += c.Dropped()
	}
	return n
}
