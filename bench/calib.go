package main

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. The benchmark runs on a share of a machine whose
// speed swings by up to 2x over minutes as its neighbours load it, and the
// simulator slows with it. A fixed slice of work, timed between rounds,
// measures that speed: each time a run reports is scaled by
// calibRef / (the slices' time around it), that is, given in seconds of a
// host on which the slice takes calibRef. The raw times stay in each
// record's info block.
//
// The slice is allocation and garbage collection of a heap of small linked
// objects on every P at once: of the kinds of work tried (pointer chases in
// L2, in the last-level cache and in DRAM, branchy integer code, streaming
// copies, allocation with collection), it is the one whose time follows the
// simulator's round times over minutes. The parent process runs the slices
// while the workload process waits for them, so the collector marks only
// the slice's own objects and the packages' start-up data: nothing the
// workload keeps alive can make the slice slower.
const (
	// calibRef is the slice's typical time on the 2-vCPU host the
	// benchmark was written on.
	calibRef = 30 * time.Millisecond
	// calibNodes is how many objects the slice allocates and collects.
	calibNodes = 300_000
	// calibReps slices make one calibration; it reports their median.
	calibReps = 3
)

type calibNode struct {
	next *calibNode
	v    [3]uint64
}

// calibSink holds the slice's objects while they are collected live.
var calibSink []*calibNode

// calibSlice allocates calibNodes objects as one linked list per P, has the
// collector mark them, drops them and has it reclaim them.
func calibSlice() time.Duration {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	calibSink = make([]*calibNode, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var head *calibNode
			for i := 0; i < calibNodes/n; i++ {
				head = &calibNode{next: head, v: [3]uint64{uint64(i)}}
			}
			calibSink[g] = head
		}(g)
	}
	wg.Wait()
	runtime.GC()
	calibSink = nil
	runtime.GC()
	return time.Since(t0)
}

func calibrate() time.Duration {
	ds := make([]time.Duration, calibReps)
	for i := range ds {
		ds[i] = calibSlice()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[calibReps/2]
}

// serveCalibration answers each request byte read from req with one
// calibration's duration, in nanoseconds, written to resp. It returns when
// req reaches end of file: the workload process has exited.
func serveCalibration(req io.Reader, resp io.Writer) error {
	var b [8]byte
	for {
		if _, err := io.ReadFull(req, b[:1]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		binary.LittleEndian.PutUint64(b[:], uint64(calibrate()))
		if _, err := resp.Write(b[:]); err != nil {
			return err
		}
	}
}

// calibClient asks the parent process for calibrations, over the two pipes
// it passes the workload process as file descriptors 3 and 4.
type calibClient struct {
	req  io.Writer
	resp io.Reader
}

func parentCalibration() calibClient {
	return calibClient{req: os.NewFile(3, "calibration requests"), resp: os.NewFile(4, "calibrations")}
}

// measure finishes any collection of the workload's own heap, so none runs
// beside the slice, and returns one calibration.
func (c calibClient) measure() (time.Duration, error) {
	runtime.GC()
	var b [8]byte
	if _, err := c.req.Write(b[:1]); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(c.resp, b[:]); err != nil {
		return 0, err
	}
	return time.Duration(binary.LittleEndian.Uint64(b[:])), nil
}
