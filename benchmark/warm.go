package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// warmFlag makes the binary a CPU warmer instead of a benchmark.
const warmFlag = "-cpu-warmer"

// keepWarm starts one lowest-priority busy process per CPU and returns the
// function that stops them and waits for them to end.
//
// The paced workloads leave the CPUs idle most of the time, and on this
// kind of host an idle virtual CPU is slow to wake and slow for a while
// after: mesh-fanout-paced read 157 or 240 µs of CPU per note and 270 or
// 340 µs of latency depending on the minute, in runs of several each — the
// same two modes at 1000 and 1500 notes/s — and 170–185 and 294–321 with
// the CPUs kept busy. The warmers run at nice 19 in processes of their
// own, so they yield to every thread of the benchmark and none of their
// time enters its getrusage figures; a sandbox offers no governor to pin
// instead.
func keepWarm() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	var pipes []io.Closer
	stop = func() {
		for _, p := range pipes {
			_ = p.Close() // end of input is the warmer's signal to exit
		}
		for _, c := range cmds {
			_ = c.Wait() // its exit status carries no information
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, warmFlag)
		in, err := c.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("start CPU warmer: %w", err)
		}
		cmds, pipes = append(cmds, c), append(pipes, in)
	}
	return stop, nil
}

// warmMain is the warmer process: lowest priority, busy until its input
// ends — which also happens if the benchmark dies without stopping it.
func warmMain() {
	runtime.LockOSThread()                               // niceness is per thread on Linux: stay on the niced one
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort: a warmer at normal priority still warms
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for x := uint64(1); ; x++ {
		if x == 0 { // never: keeps the loop from being compiled away
			fmt.Println()
		}
	}
}
