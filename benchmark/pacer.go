package main

import (
	"syscall"
	"time"
)

// schedule is an open-loop send plan: item i is due at start + i×interval,
// whatever happened to the items before it. There is no ticker anywhere: a
// ticker drops ticks it cannot deliver, which silently lowers the offered
// rate; a deadline schedule makes a stalled generator catch up instead and
// charges the stall to the items that waited.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// clock is the time source pace runs on; tests substitute a fake.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: nanosleep}

// nanosleep blocks the calling thread in nanosleep(2). time.Sleep is not
// usable for a 1 kHz schedule: when the process is otherwise idle the Go
// runtime parks in epoll_wait, whose timeout counts milliseconds, so every
// sub-millisecond wait takes ≈ 1.1 ms (measured on this host: a 500 µs
// sleep overshoots by 620 µs, nanosleep by 80 µs) and the schedule runs
// half a period late on average.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// pace calls send(i) for i = 0..n-1, each no earlier than its due time, and
// returns how late each call started (≥ 0, in µs). When the generator is
// behind schedule it sends back to back until it has caught up. send
// returning false stops the run early.
func pace(s schedule, n int, c clock, send func(i int) bool) (lateUs []float64) {
	lateUs = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := s.due(i)
		now := c.now()
		if wait := due.Sub(now); wait > 0 {
			c.sleep(wait)
			now = c.now()
		}
		late := now.Sub(due)
		if late < 0 {
			late = 0
		}
		lateUs = append(lateUs, float64(late)/float64(time.Microsecond))
		if !send(i) {
			break
		}
	}
	return lateUs
}

// window bounds what a closed loop keeps in flight: acquire before a send,
// release per completed delivery. Publishers are not back-pressured by the
// brokers, so without it "publish N, then wait" overruns the overlay's
// pending queues and the run measures drops instead of throughput.
type window chan struct{}

func newWindow(n int) window { return make(window, n) }

// acquire takes one slot, giving up at the deadline.
func (w window) acquire(deadline time.Time) bool {
	select {
	case w <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case w <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (w window) release() {
	select {
	case <-w:
	default: // a duplicate delivery must not free a slot nobody took
	}
}
