package scenario

import (
	"flag"
	"fmt"
	"strings"
	"time"
)

// The knob table. Every command-line flag that sets a scenario field, and
// every output flag two or more commands share, is declared exactly once
// below. A command registers the entries it takes (NewFlags), each with its
// default read from the command's built-in base scenario, and resolves its
// scenario by one rule (Flags.Resolve): start from -scenario or that base,
// then apply exactly the flags the user typed.

// Flags is one command's flag set: the knob-table entries it registered
// plus whatever command-specific flags it declares on the embedded FlagSet.
type Flags struct {
	*flag.FlagSet
	// Scenario is the -scenario argument, a preset name or file ("" = the
	// base). A command may set it before Resolve to start from a preset of
	// its own choosing (specasan-bench -fig).
	Scenario string
	// Out holds the output knobs; they shape no scenario.
	Out Output

	base  *Scenario
	apply map[string]func(*Scenario) error
}

// Output is where a run's side products go: none of it is hashed.
type Output struct {
	Store         string // -store: result-store directory
	StoreMaxBytes int64  // -store-max-bytes: prune bound applied on open
	MetricsOut    string // -metrics-out: metrics JSONL file
	TraceOut      string // -trace-out: Chrome trace file for -trace
	CPUProfile    string // -cpuprofile
	MemProfile    string // -memprofile
	Verbose       bool   // -v
}

// A knob is one table entry: its usage text and how to declare it.
type knob struct {
	usage   string
	declare declarer
}

// A declarer registers one knob's flag on f and returns how the typed value
// applies to a scenario (nil for knobs that set no scenario field).
type declarer = func(f *Flags, name, usage string) func(*Scenario) error

var knobs = map[string]knob{
	"scenario": {"scenario preset name or file to start from; typed flags override its fields",
		func(f *Flags, name, usage string) func(*Scenario) error {
			f.StringVar(&f.Scenario, name, "", usage)
			return nil
		}},

	// Workloads and mitigations.
	"bench": {"benchmark kernel name (e.g. 505.mcf_r, canneal)",
		single(func(s *Scenario, v string) {
			if v != "" {
				s.Workloads = []string{v}
			}
		})},
	"file": {"assembly file to run instead of a kernel",
		single(func(s *Scenario, v string) {
			if v != "" {
				s.Workloads = []string{FileWorkloadPrefix + v}
			}
		})},
	"mitigation": {"a registered policy name (specasan-sim -mitigations lists them)",
		func(f *Flags, name, usage string) func(*Scenario) error {
			p := f.String(name, f.base.Mitigations[0], usage)
			return func(s *Scenario) error { s.Mitigations = []string{*p}; return nil }
		}},
	"workloads": {"comma-separated benchmark names",
		list(func(s *Scenario) *[]string { return &s.Workloads })},
	"mits": {"comma-separated mitigation columns",
		list(func(s *Scenario) *[]string { return &s.Mitigations })},

	// Run options.
	"scale": {"kernel iteration scale",
		field((*flag.FlagSet).Float64, func(s *Scenario) *float64 { return &s.Run.Scale })},
	"max-cycles": {"cycle budget per run",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Run.MaxCycles })},
	"workers": {"worker pool size (0 = GOMAXPROCS, 1 = serial)",
		field((*flag.FlagSet).Int, func(s *Scenario) *int { return &s.Run.Workers })},
	"skip-idle": {"event-driven idle-cycle skipping (exactness-preserving; off walks every cycle)",
		field((*flag.FlagSet).Bool, func(s *Scenario) *bool { return &s.Run.SkipIdle })},
	"fast-forward": {"fast-forward this many instructions functionally before detailed simulation (0 = fully detailed; committed counts and output stay exact, cycles become an estimate)",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Run.FastForwardInsts })},
	"sample-windows": {"simulate this many evenly-spaced detailed windows and extrapolate cycles from their pooled IPC (requires -sample-window-insts; <=1 = one window after -fast-forward, or no sampling)",
		field((*flag.FlagSet).Int, func(s *Scenario) *int { return &s.Run.SampleWindows })},
	"sample-window-insts": {"instructions per detailed window for -sample-windows",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Run.SampleWindowInsts })},
	"warmup-cycles": {"detailed warmup cycles excluded before each sampled measurement (0 = default 2000)",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Run.WarmupCycles })},

	// Chaos campaign.
	"seeds": {"number of chaos seeds per grid cell",
		field((*flag.FlagSet).Int, func(s *Scenario) *int { return &s.Chaos.Seeds })},
	"seed0": {"first chaos seed",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Chaos.Seed0 })},
	"kinds": {"comma-separated fault kinds (empty: every kind)",
		list(func(s *Scenario) *[]string { return &s.Chaos.Kinds })},
	"rate": {"per-opportunity injection probability",
		field((*flag.FlagSet).Float64, func(s *Scenario) *float64 { return &s.Chaos.Rate })},
	"maxlat": {"max injected latency (cycles)",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Chaos.MaxLatency })},
	"verdict-seeds": {"chaos seeds for the Table 1 verdict-invariance sweep (0 = skip it)",
		field((*flag.FlagSet).Int, func(s *Scenario) *int { return &s.Chaos.VerdictSeeds })},

	// Attack-discovery fuzzing.
	"seed": {"generator seed (candidate i is a pure function of seed and i)",
		field((*flag.FlagSet).Uint64, func(s *Scenario) *uint64 { return &s.Fuzz.Seed })},
	"n": {"candidate count (0 = unbounded, requires -budget)",
		field((*flag.FlagSet).Int, func(s *Scenario) *int { return &s.Fuzz.Candidates })},
	"budget": {"wall-clock bound in whole seconds, used when -n is 0: whole batches run until it expires",
		func(f *Flags, name, usage string) func(*Scenario) error {
			p := f.Duration(name, time.Duration(f.base.Fuzz.BudgetSeconds)*time.Second, usage)
			return func(s *Scenario) error {
				if *p%time.Second != 0 {
					return fmt.Errorf("-%s %v is not a whole number of seconds", name, *p)
				}
				s.Fuzz.BudgetSeconds = int(*p / time.Second)
				return nil
			}
		}},

	// Output.
	"store": {"result-store directory: verified cached results are served without simulating, cold results persist",
		output((*flag.FlagSet).StringVar, func(o *Output) *string { return &o.Store }, "")},
	"store-max-bytes": {"prune the -store directory to at most this many entry bytes on open, oldest entries first (0 = unbounded)",
		output((*flag.FlagSet).Int64Var, func(o *Output) *int64 { return &o.StoreMaxBytes }, 0)},
	"metrics-out": {"write pipeline-metrics records (JSONL, cell order) to this file",
		output((*flag.FlagSet).StringVar, func(o *Output) *string { return &o.MetricsOut }, "")},
	"trace-out": {"where -trace writes its Chrome trace-event JSON (load in Perfetto / chrome://tracing)",
		output((*flag.FlagSet).StringVar, func(o *Output) *string { return &o.TraceOut }, "trace.json")},
	"cpuprofile": {"write a CPU profile to this file",
		output((*flag.FlagSet).StringVar, func(o *Output) *string { return &o.CPUProfile }, "")},
	"memprofile": {"write a heap profile to this file",
		output((*flag.FlagSet).StringVar, func(o *Output) *string { return &o.MemProfile }, "")},
	"v": {"log progress: each run, batch or emitted PoC",
		output((*flag.FlagSet).BoolVar, func(o *Output) *bool { return &o.Verbose }, false)},
}

// field binds a knob to one typed scenario field, defaulting to the base's
// value.
func field[T any](decl func(*flag.FlagSet, string, T, string) *T, at func(*Scenario) *T) declarer {
	return func(f *Flags, name, usage string) func(*Scenario) error {
		p := decl(f.FlagSet, name, *at(f.base), usage)
		return func(s *Scenario) error { *at(s) = *p; return nil }
	}
}

// list binds a comma-separated knob to a list field, defaulting to the
// base's list.
func list(at func(*Scenario) *[]string) declarer {
	return func(f *Flags, name, usage string) func(*Scenario) error {
		p := f.String(name, strings.Join(*at(f.base), ","), usage)
		return func(s *Scenario) error { *at(s) = splitCSV(*p); return nil }
	}
}

// single binds a string knob with no default to a setter.
func single(set func(*Scenario, string)) declarer {
	return func(f *Flags, name, usage string) func(*Scenario) error {
		p := f.String(name, "", usage)
		return func(s *Scenario) error { set(s, *p); return nil }
	}
}

// output binds a knob to an Output field.
func output[T any](decl func(*flag.FlagSet, *T, string, T, string), at func(*Output) *T, def T) declarer {
	return func(f *Flags, name, usage string) func(*Scenario) error {
		decl(f.FlagSet, at(&f.Out), name, def, usage)
		return nil
	}
}

// NewFlags returns cmd's flag set with the named knob-table entries
// registered, their defaults read from base: the scenario cmd runs when
// -scenario is not given (nil when cmd takes only output knobs). An unknown
// name panics. Parsing exits like flag.ExitOnError: 0 after -help, 2 on a
// bad flag.
func NewFlags(cmd string, base *Scenario, names ...string) *Flags {
	f := &Flags{
		FlagSet: flag.NewFlagSet(cmd, flag.ExitOnError),
		base:    base,
		apply:   make(map[string]func(*Scenario) error),
	}
	for _, name := range names {
		k, ok := knobs[name]
		if !ok {
			panic(fmt.Sprintf("scenario: no knob %q", name))
		}
		if apply := k.declare(f, name, k.usage); apply != nil {
			f.apply[name] = apply
		}
	}
	return f
}

// Resolve returns the command's effective scenario after parsing: the
// -scenario preset or file (its missing chaos or fuzz section taken from
// the base), else the base, with exactly the typed knob flags applied over
// it. The result is validated.
func (f *Flags) Resolve() (*Scenario, error) {
	s := f.base
	if f.Scenario != "" {
		var err error
		if s, err = Load(f.Scenario); err != nil {
			return nil, err
		}
		if s.Chaos == nil {
			s.Chaos = f.base.Chaos
		}
		if s.Fuzz == nil {
			s.Fuzz = f.base.Fuzz
		}
	}
	var err error
	f.Visit(func(fl *flag.Flag) {
		if apply := f.apply[fl.Name]; apply != nil && err == nil {
			err = apply(s)
		}
	})
	if err != nil {
		return nil, err
	}
	return s, s.Validate()
}
