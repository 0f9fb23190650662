package cpu

import (
	"fmt"
	"strings"

	"specasan/internal/isa"
)

// SimError is a structured simulation failure: a wedged pipeline or a broken
// microarchitectural invariant, caught by the watchdog before it would burn
// the whole MaxCycles budget. It carries a pipeview-style snapshot of the
// stuck window so the failure is debuggable from the report alone.
type SimError struct {
	Kind     string // "commit-stall", "rob-invariant", "lsq-invariant"
	Core     int
	Cycle    uint64
	Detail   string
	Snapshot string // rendering of the core's in-flight window
}

// Error implements the error interface.
func (e *SimError) Error() string {
	return fmt.Sprintf("sim error on core %d at cycle %d: %s: %s",
		e.Core, e.Cycle, e.Kind, e.Detail)
}

// DefaultStallCycles is the no-commit-progress threshold. The longest
// legitimate commit-to-commit gap in the Table 2 configuration is a few
// hundred cycles (a DRAM miss chain at the ROB head), so fifty thousand
// cycles without a single head advance is a hang, not a slow run.
const DefaultStallCycles = 50_000

// defaultCheckEvery spaces watchdog scans; invariant checks walk the ROB,
// so running them every cycle would dominate simulation time.
const defaultCheckEvery = 1024

// Watchdog monitors a machine's cores for commit-progress stalls and
// ROB/LSQ bookkeeping violations during Machine.Run.
type Watchdog struct {
	// StallCycles is how long a core may go without advancing its ROB head
	// before the run is declared wedged.
	StallCycles uint64
	// CheckEvery is the cycle interval between scans: Check scans at its
	// multiples. A change takes effect after the next scheduled scan.
	CheckEvery uint64

	// next is the first multiple of CheckEvery after the last cycle Check
	// or the idle skip looked at: Check does nothing before it.
	next       uint64
	lastHead   []uint64 // per-core headSeq at the previous scan
	lastChange []uint64 // per-core cycle of the last observed head advance
}

// NewWatchdog returns a watchdog for a machine with the given core count,
// using the default thresholds.
func NewWatchdog(cores int) *Watchdog {
	return &Watchdog{
		StallCycles: DefaultStallCycles,
		CheckEvery:  defaultCheckEvery,
		lastHead:    make([]uint64, cores),
		lastChange:  make([]uint64, cores),
	}
}

// scanAt returns the first multiple of CheckEvery at or after now: the next
// cycle Check scans. The stored value stays current while Check sees every
// cycle; it is recomputed only when cycles went by unseen (a caller
// stepping the machine without Run). CheckEvery must be non-zero.
func (w *Watchdog) scanAt(now uint64) uint64 {
	if w.next < now {
		w.next = (now + w.CheckEvery - 1) / w.CheckEvery * w.CheckEvery
	}
	return w.next
}

// Check scans every live core and returns a SimError if one has stalled or
// broken a pipeline invariant. It is cheap on non-scan cycles: one compare
// against the stored next scan cycle.
func (w *Watchdog) Check(m *Machine) *SimError {
	if m.cycle < w.next || w.CheckEvery == 0 || w.scanAt(m.cycle) != m.cycle {
		return nil
	}
	w.next = m.cycle + w.CheckEvery
	for i, c := range m.Cores {
		if c.Halted || c.Faulted {
			continue
		}
		if kind, detail := c.checkInvariants(); kind != "" {
			return &SimError{
				Kind: kind, Core: i, Cycle: m.cycle, Detail: detail,
				Snapshot: c.StallSnapshot(),
			}
		}
		if c.headSeq != w.lastHead[i] {
			w.lastHead[i] = c.headSeq
			w.lastChange[i] = m.cycle
			continue
		}
		if m.cycle-w.lastChange[i] > w.StallCycles {
			return &SimError{
				Kind: "commit-stall", Core: i, Cycle: m.cycle,
				Detail: fmt.Sprintf("no commit progress for %d cycles (head seq %d, %d in flight, last commit at cycle %d)",
					m.cycle-w.lastChange[i], c.headSeq, c.robCount(), c.lastCommitCycle),
				Snapshot: c.StallSnapshot(),
			}
		}
	}
	return nil
}

// checkInvariants validates the core's ROB/LSQ bookkeeping: sequence
// ordering, capacity bounds, and the queue counters against a recount of
// the in-flight window. A mismatch means the pipeline's free-list/counter
// state has corrupted — the class of bug that otherwise shows up as an
// unexplainable deadlock thousands of cycles later.
func (c *Core) checkInvariants() (kind, detail string) {
	if c.nextSeq < c.headSeq {
		return "rob-invariant", fmt.Sprintf("nextSeq %d behind headSeq %d", c.nextSeq, c.headSeq)
	}
	if c.robCount() > c.robCap {
		return "rob-invariant", fmt.Sprintf("%d in flight exceeds %d ROB entries", c.robCount(), c.robCap)
	}
	iq, lq, sq := 0, 0, 0
	unresolved, tagWrites := 0, 0
	branches, barriers := 0, 0
	brDue, lsqDue := noEvent, noEvent
	for s := c.headSeq; s < c.nextSeq; s++ {
		e := &c.rob[s&c.robMask]
		if !e.valid {
			continue
		}
		if e.seq != s {
			return "rob-invariant", fmt.Sprintf("entry at slot %d holds seq %d, want %d",
				s&c.robMask, e.seq, s)
		}
		switch e.state {
		case stDispatched:
			iq++
		case stExecuting: // only branches enter stExecuting
			brDue = min(brDue, e.doneAt)
		case stWaitMem:
			lsqDue = min(lsqDue, e.doneAt)
		case stWaitUnsafe: // polled every cycle until a branch releases it
			lsqDue = min(lsqDue, c.cycle+1)
		}
		if e.isLoad {
			lq++
		}
		if e.isStore {
			sq++
			if !e.addrReady {
				unresolved++
			}
			if e.inst.Dec.TagWrite {
				tagWrites++
			}
		}
		if e.isBranch && !e.brResolved {
			branches++
		}
		if e.inst.Dec.Barrier {
			barriers++
		}
	}
	if iq != c.iqCount {
		return "lsq-invariant", fmt.Sprintf("IQ counter %d, recount %d", c.iqCount, iq)
	}
	if lq != c.lqCount || c.lqCount > c.cfg.LQEntries {
		return "lsq-invariant", fmt.Sprintf("LQ counter %d (cap %d), recount %d", c.lqCount, c.cfg.LQEntries, lq)
	}
	if sq != c.sqCount || c.sqCount > c.cfg.SQEntries {
		return "lsq-invariant", fmt.Sprintf("SQ counter %d (cap %d), recount %d", c.sqCount, c.cfg.SQEntries, sq)
	}
	// Incremental-structure invariants: the counters and seq queues the O(1)
	// rename/wakeup pipeline maintains must agree with a recount of the
	// window (see DESIGN.md, "Performance of the substrate").
	if unresolved != c.unresolvedStores {
		return "lsq-invariant", fmt.Sprintf("unresolvedStores counter %d, recount %d", c.unresolvedStores, unresolved)
	}
	if tagWrites != c.tagWritesInFlight {
		return "lsq-invariant", fmt.Sprintf("tagWritesInFlight counter %d, recount %d", c.tagWritesInFlight, tagWrites)
	}
	// A due cycle may run early (a squash can take its entry away) but
	// never late: completeExecution or advanceLSQ would sleep through a
	// completion.
	if c.brDue > brDue {
		return "rob-invariant", fmt.Sprintf("brDue %d, recount %d", c.brDue, brDue)
	}
	if c.lsqDue > lsqDue {
		return "lsq-invariant", fmt.Sprintf("lsqDue %d, recount %d", c.lsqDue, lsqDue)
	}
	if kind, detail := c.checkQueue("loadQ", c.loadQ, lq, func(e *robEntry) bool { return e.isLoad }); kind != "" {
		return kind, detail
	}
	if kind, detail := c.checkQueue("storeQ", c.storeQ, sq, func(e *robEntry) bool { return e.isStore }); kind != "" {
		return kind, detail
	}
	if kind, detail := c.checkQueue("branchQ", c.branchQ, branches,
		func(e *robEntry) bool { return e.isBranch && !e.brResolved }); kind != "" {
		return kind, detail
	}
	if kind, detail := c.checkQueue("barrierQ", c.barrierQ, barriers,
		func(e *robEntry) bool { return e.inst.Dec.Barrier }); kind != "" {
		return kind, detail
	}
	// The rename map table must match what a window scan would compute —
	// the exact scan dispatch used to run per source operand.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if want := c.youngestProducerScan(r, c.nextSeq); c.rat[r] != want {
			return "rob-invariant", fmt.Sprintf("rat[%v]=%d, window scan says %d", r, c.rat[r], want)
		}
	}
	if want := c.youngestFlagsProducerScan(c.nextSeq); c.ratFlags != want {
		return "rob-invariant", fmt.Sprintf("ratFlags=%d, window scan says %d", c.ratFlags, want)
	}
	return "", ""
}

// checkQueue validates one incremental seq queue: ascending order, live
// membership of the right entry kind, and a length matching the recount.
func (c *Core) checkQueue(name string, q []uint64, want int, member func(*robEntry) bool) (string, string) {
	if len(q) != want {
		return "rob-invariant", fmt.Sprintf("%s holds %d entries, recount %d", name, len(q), want)
	}
	for i, s := range q {
		if i > 0 && q[i-1] >= s {
			return "rob-invariant", fmt.Sprintf("%s not ascending at index %d (%d after %d)", name, i, s, q[i-1])
		}
		e := c.entry(s)
		if e == nil {
			return "rob-invariant", fmt.Sprintf("%s holds dead seq %d", name, s)
		}
		if !member(e) {
			return "rob-invariant", fmt.Sprintf("%s holds seq %d which no longer qualifies", name, s)
		}
	}
	return "", ""
}

var stateNames = map[entryState]string{
	stDispatched: "dispatched",
	stExecuting:  "executing",
	stWaitMem:    "wait-mem",
	stWaitUnsafe: "wait-unsafe",
	stDone:       "done",
}

// StallSnapshot renders the core's current in-flight window in pipeview
// style: front-end state, queue occupancy, and one line per ROB entry from
// head to tail. Unlike the event ring's timeline (obs.Pipeview) it needs no
// tracer attached before the run, so it can capture a pipeline that wedged
// before anyone thought to record it.
func (c *Core) StallSnapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d @cycle %d: fetchPC=%#x stallTo=%d blockedBy=%d fetchQ=%d\n",
		c.ID, c.cycle, c.fetchPC, c.fetchStallTo, c.fetchBlockedBy, c.fqLen())
	fmt.Fprintf(&b, "  rob head=%d next=%d inflight=%d iq=%d lq=%d sq=%d lastCommit=%d\n",
		c.headSeq, c.nextSeq, c.robCount(), c.iqCount, c.lqCount, c.sqCount, c.lastCommitCycle)
	const maxLines = 48
	n := 0
	for s := c.headSeq; s < c.nextSeq; s++ {
		if n >= maxLines {
			fmt.Fprintf(&b, "  ... %d more\n", c.nextSeq-s)
			break
		}
		e := &c.rob[s&c.robMask]
		if !e.valid {
			fmt.Fprintf(&b, "  seq=%-6d <invalid>\n", s)
			n++
			continue
		}
		fmt.Fprintf(&b, "  seq=%-6d pc=%#-10x %-11s doneAt=%-8d %v", e.seq, e.pc, stateNames[e.state], e.doneAt, e.inst)
		if e.isBranch {
			fmt.Fprintf(&b, " [branch resolved=%v]", e.brResolved)
		}
		if e.isLoad || e.isStore {
			fmt.Fprintf(&b, " [mem addrReady=%v issued=%v]", e.addrReady, e.memIssued)
		}
		b.WriteByte('\n')
		n++
	}
	return b.String()
}
