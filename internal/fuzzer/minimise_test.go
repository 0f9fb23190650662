package fuzzer

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"specasan/internal/core"
)

// TestMinimiseProbesEachTrialOnce runs two checked-in finds through the
// minimiser with a counting probe: no (train, body) trial may reach the
// simulator twice, and the result must be the checked-in PoC.
func TestMinimiseProbesEachTrialOnce(t *testing.T) {
	cases := []struct {
		index int
		mit   core.Mitigation
		poc   string
	}{
		{8, core.GhostMinion, "pht-foreign-branch-a845cceeb30a"},
		{18, core.SpecASan, "stl-untagged-mshr-c5db36911adb"},
	}
	for _, tc := range cases {
		probes := map[trial]int{}
		count := func(c *Candidate, mit core.Mitigation) bool {
			probes[trial{c.Train, strings.Join(c.Body, "\n")}]++
			return replays(c, mit)
		}
		min, err := minimise(Generate(1, tc.index), tc.mit, count)
		if err != nil {
			t.Fatalf("candidate %d under %v: %v", tc.index, tc.mit, err)
		}
		for k, n := range probes {
			if n > 1 {
				t.Errorf("candidate %d: trial (train %d, %d body bytes) simulated %d times", tc.index, k.train, len(k.body), n)
			}
		}
		want, err := ReadPoC(filepath.Join("testdata", "pocs", tc.poc+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if min.Source != want.Source || !reflect.DeepEqual(min.Setup, want.Setup) {
			t.Errorf("candidate %d minimises to\n%s\nwant the checked-in %s:\n%s", tc.index, min.Source, tc.poc, want.Source)
		}
		t.Logf("candidate %d under %v: %d distinct trials simulated", tc.index, tc.mit, len(probes))
	}
}

// TestDdminThroughMemo checks memoProbe against bare ddmin over random
// keep-set predicates: a trial holds when it contains every kept line, as
// many times as the keep set names it. Lines repeat, as generated bodies'
// NOPs and MSHR adds do. Through the memo, ddmin must return the same lines
// and call the predicate once per distinct input.
func TestDdminThroughMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		lines := make([]string, 1+rng.Intn(20))
		for i := range lines {
			lines[i] = fmt.Sprintf("l%d", rng.Intn(8))
		}
		keep := map[string]int{}
		for _, l := range lines {
			if rng.Intn(4) == 0 {
				keep[l]++
			}
		}
		holds := func(ls []string) bool {
			have := map[string]int{}
			for _, l := range ls {
				have[l]++
			}
			for l, n := range keep {
				if have[l] < n {
					return false
				}
			}
			return true
		}

		bareInputs := map[string]bool{}
		bare := ddmin(lines, func(ls []string) bool {
			bareInputs[strings.Join(ls, "\n")] = true
			return holds(ls)
		})
		calls := map[string]int{}
		memo := memoProbe(func(_ int, ls []string) bool {
			calls[strings.Join(ls, "\n")]++
			return holds(ls)
		})
		got := ddmin(lines, func(ls []string) bool { return memo(0, ls) })

		if !reflect.DeepEqual(got, bare) {
			t.Fatalf("lines %v keep %v: through the memo ddmin = %v, bare %v", lines, keep, got, bare)
		}
		if len(calls) != len(bareInputs) {
			t.Fatalf("lines %v keep %v: memo probed %d distinct inputs, bare ddmin tried %d", lines, keep, len(calls), len(bareInputs))
		}
		for in, n := range calls {
			if n != 1 {
				t.Fatalf("lines %v keep %v: input %q reached the predicate %d times", lines, keep, in, n)
			}
		}
	}
}
