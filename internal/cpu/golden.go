package cpu

// The differential contract: a core's committed architectural state must
// equal what the golden interpreter's walk of the same program commits.
// NewGolden builds the interpreter a core is judged against and GoldenDiff
// judges it, with GoldenMemoryDiff judging a multi-core machine's memory;
// chaos runs, the attack fuzzer's find triage, the sampler's functional
// walks and the differential tests all go through these.

import (
	"bytes"
	"fmt"
	"slices"

	"specasan/internal/asm"
	"specasan/internal/golden"
	"specasan/internal/isa"
	"specasan/internal/mem"
	"specasan/internal/mte"
)

// maxGoldenDiffs bounds one GoldenDiff list: a wrong store can leave
// thousands of differing bytes, and the first few name the bug.
const maxGoldenDiffs = 32

// NewGolden builds core i's golden twin: the reference interpreter over a
// fresh image of prog, set up as core i of a machine whose mitigation has
// MTE mode mteOn, with the IRG seed TagSeedBase+i and thread id i in X0.
func NewGolden(prog *asm.Program, mteOn bool, i int) *golden.Interp {
	ip := golden.New(prog)
	ip.SetReg(isa.X0, uint64(i))
	return asTwin(ip, mteOn, i)
}

// ResumeGolden builds core i's golden twin resumed from st, a snapshot of
// that twin taken mid-walk (golden.Resume): it walks on exactly as the
// snapshotted twin would have. st stays usable.
func ResumeGolden(prog *asm.Program, mteOn bool, i int, st *golden.State) *golden.Interp {
	return asTwin(golden.Resume(prog, st), mteOn, i)
}

// asTwin sets ip up as core i's twin under MTE mode mteOn.
func asTwin(ip *golden.Interp, mteOn bool, i int) *golden.Interp {
	ip.MTEOn = mteOn
	ip.TagSeed = TagSeedBase + uint64(i)
	return ip
}

// GoldenDiff lists how core i's committed state differs from that of its
// golden twin ip, whose walk ended with res. It returns nil when they agree.
//
// A walk that stopped on a tag fault or a bad PC needs the core to have
// faulted, and nothing else is compared. Against any other walk a core
// fault is a difference. A walk that exited needs the core halted with the
// same exit code; a walk that stopped on its instruction budget (a check
// taken mid-walk) is compared on state alone: the registers, the NZCV flags
// and the SVC output and, on a one-core machine, whose image has no other
// writer, every byte of every page that either image maps and every
// allocation tag. The twins of a multi-core machine each own a private
// image, so there GoldenMemoryDiff judges memory against all of them at
// once. The list stops at 32 entries.
func (m *Machine) GoldenDiff(i int, ip *golden.Interp, res *golden.Result) []string {
	c := m.Cores[i]
	var out []string
	add := func(format string, args ...any) bool {
		if len(out) < maxGoldenDiffs {
			out = append(out, fmt.Sprintf("core %d: %s", i, fmt.Sprintf(format, args...)))
		}
		return len(out) < maxGoldenDiffs
	}
	switch {
	case res.Reason == golden.StopTagFault || res.Reason == golden.StopBadPC:
		if !c.Faulted {
			add("golden stopped with %v at %#x, machine did not fault", res.Reason, res.PC)
		}
		return out
	case c.Faulted:
		add("machine faulted at %#x, golden did not fault", c.FaultPC)
		return out
	case res.Reason == golden.StopExit && !c.Halted:
		add("still running (golden exited after %d insts)", res.Insts)
		return out
	case res.Reason == golden.StopExit && c.ExitCode != res.ExitCode:
		add("exit code %#x, golden %#x", c.ExitCode, res.ExitCode)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got, want := c.Reg(r), res.Regs[r]; got != want && !add("%v = %#x, golden %#x", r, got, want) {
			return out
		}
	}
	if c.cFlags != res.Flags {
		add("flags %+v, golden %+v", c.cFlags, res.Flags)
	}
	if !bytes.Equal(c.Output, res.Output) {
		add("output %q, golden %q", c.Output, res.Output)
	}
	if len(m.Cores) > 1 {
		return out
	}
	// A page at a time; tags live in the page frames, beside the bytes.
	pages := append(m.Img.PageAddrs(), ip.Mem.PageAddrs()...)
	slices.Sort(pages)
	for _, p := range slices.Compact(pages) {
		ad, al := frameOrZero(m.Img, p)
		bd, bl := frameOrZero(ip.Mem, p)
		if bytes.Equal(ad, bd) && slices.Equal(al, bl) {
			continue
		}
		for off := range ad {
			if ad[off] != bd[off] && !add("mem[%#x] = %#x, golden %#x", p+uint64(off), ad[off], bd[off]) {
				return out
			}
		}
		for g := range al {
			if al[g] != bl[g] && !add("tag granule %#x: machine lock %d, golden %d", p+uint64(g)*mte.GranuleBytes, al[g], bl[g]) {
				return out
			}
		}
	}
	return out
}

// GoldenMemoryDiff judges a multi-core machine's memory against its cores'
// golden twins, twins[i] being core i's after its walk of prog. Each twin
// owns a private image, so GoldenDiff leaves memory out on such a machine;
// here the images merge by writer. The writers of a byte or of a tag
// granule, on any page the machine or a twin maps, are the twins whose
// final value differs from a fresh image of prog. With no writer the
// machine must hold the initial value, and with one, or several that
// agree, it must hold theirs. Several that disagree mark a racy, atomic or
// reduced location: unjudged counts those bytes and granules, which are
// not compared. The list stops at 32 entries.
func (m *Machine) GoldenMemoryDiff(prog *asm.Program, twins []*golden.Interp) (out []string, unjudged int) {
	fresh := mem.NewImage()
	fresh.LoadProgram(prog)
	defer fresh.Release()
	pages := m.Img.PageAddrs()
	for _, ip := range twins {
		pages = append(pages, ip.Mem.PageAddrs()...)
	}
	slices.Sort(pages)
	// datas and locks hold the pages of the twins that wrote a page.
	var datas [][]byte
	var locks [][]mte.Tag
	for _, p := range slices.Compact(pages) {
		fd, fl := frameOrZero(fresh, p)
		md, ml := frameOrZero(m.Img, p)
		datas, locks = datas[:0], locks[:0]
		for _, ip := range twins {
			d, l := frameOrZero(ip.Mem, p)
			if !bytes.Equal(d, fd) || !slices.Equal(l, fl) {
				datas, locks = append(datas, d), append(locks, l)
			}
		}
		// A page one twin at most wrote holds that twin's page, or the
		// initial one, wherever the merge judges it.
		wd, wl := fd, fl
		if len(datas) == 1 {
			wd, wl = datas[0], locks[0]
		}
		if len(datas) <= 1 && bytes.Equal(md, wd) && slices.Equal(ml, wl) {
			continue
		}
		for off := range md {
			want, ok := merged(fd[off], datas, off)
			switch {
			case !ok:
				unjudged++
			case md[off] != want && len(out) < maxGoldenDiffs:
				out = append(out, fmt.Sprintf("memory: mem[%#x] = %#x, golden %#x", p+uint64(off), md[off], want))
			}
		}
		for g := range ml {
			want, ok := merged(fl[g], locks, g)
			switch {
			case !ok:
				unjudged++
			case ml[g] != want && len(out) < maxGoldenDiffs:
				out = append(out, fmt.Sprintf("memory: tag granule %#x: machine lock %d, golden %d",
					p+uint64(g)*mte.GranuleBytes, ml[g], want))
			}
		}
	}
	return out, unjudged
}

// merged returns the value the writers among pages leave at offset off,
// whose initial value is init: init when none wrote it, their value when
// all that did agree, and false when they disagree.
func merged[T comparable](init T, pages [][]T, off int) (T, bool) {
	want, wrote := init, false
	for _, pg := range pages {
		if v := pg[off]; v != init {
			if wrote && v != want {
				return init, false
			}
			want, wrote = v, true
		}
	}
	return want, true
}

// Unmapped pages read as zero bytes and zero locks on either side.
var (
	zeroPage  [mem.PageBytes]byte
	zeroLocks [mem.PageBytes / mte.GranuleBytes]mte.Tag
)

// frameOrZero returns the bytes and locks of img's page at p, zeros when
// img does not map it.
func frameOrZero(img *mem.Image, p uint64) ([]byte, []mte.Tag) {
	if data, locks := img.FrameAt(p); data != nil {
		return data, locks
	}
	return zeroPage[:], zeroLocks[:]
}
