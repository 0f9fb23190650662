package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent is the id of the span that caused it (0 for a round).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds run the same code with no spans.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span whose id is known before it ends, so children can name it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

func (t *tracer) begin(name string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

func (o open) end() { o.endAt(time.Now()) }

func (o open) endAt(at time.Time) {
	if o.t != nil {
		o.t.add(span{ID: o.id, Parent: o.parent, Name: o.name,
			Start: o.start.Sub(o.t.t0).Nanoseconds(), End: at.Sub(o.t.t0).Nanoseconds()})
	}
}

// record adds a finished span with no children of its own.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t != nil {
		t.add(span{ID: t.ids.Add(1), Parent: parent, Name: name,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfMs sums, per span name, each span's duration minus the part of that
// interval its children cover, in milliseconds. Children may overlap (cells
// on parallel workers), so the covered part is the union of their
// intervals.
func selfMs(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// profileShares attributes the flat samples of CPU profiles to modules
// with `go tool pprof -top`, keeping every node so the shares sum to 100 %.
func profileShares(files []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, files...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return attributeTop(string(out))
}

// topRow matches one node row of `pprof -top`: flat, flat%, sum%, cum,
// cum%, function. A zero flat value prints without a unit.
var topRow = regexp.MustCompile(`^\s*([0-9.]+)([a-zµ]*)\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+[a-zµ]*\s+[0-9.]+%\s+(.+)$`)

var unitSeconds = map[string]float64{
	"": 1, "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
}

// attributeTop turns `pprof -top` text into module shares in percent.
func attributeTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		scale, ok := unitSeconds[m[2]]
		if err != nil || !ok {
			return nil, fmt.Errorf("pprof row %q: bad flat value", line)
		}
		flat[layerOf(m[3])] += v * scale
		total += v * scale
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof output has no samples")
	}
	shares := map[string]float64{}
	for _, mod := range layerModules {
		shares[mod] = 100 * flat[mod] / total
	}
	return shares, nil
}

// layerOf names the module that owns a profiled function.
func layerOf(fn string) string {
	// The package path runs to the first dot after the last slash; type
	// arguments of a generic instantiation may hold slashes of their own.
	if i := strings.IndexByte(fn, '['); i > 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		// Unqualified names are the runtime's assembly routines
		// (aeshashbody, gcWriteBarrier); [unknown] is unsymbolized.
		if strings.HasPrefix(fn, "[") {
			return "other"
		}
		return "runtime"
	}
	pkg := fn[:slash+1+dot]
	first, _, _ := strings.Cut(pkg, "/")
	switch {
	case strings.HasPrefix(pkg, "specasan/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "specasan/internal/"), "/")
		if slices.Contains(layerModules, mod) {
			return mod
		}
		return "other"
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case first == "specasan" || strings.Contains(first, "."):
		return "other"
	}
	// Standard-library import paths have no dot in their first element.
	return "stdlib"
}
