package main

import (
	"os"
	"strconv"
	"strings"
)

// On a VM that shares its machine, the guest's CPUs stall while the
// hypervisor runs other guests ("steal" in /proc/stat), and every
// latency measured across a stall reads slow for reasons that have
// nothing to do with the program. On a busy 2-vCPU host, stalls of 30%
// of the CPU time last tens of seconds, enough to double a run's
// figures. So the benchmark reads the steal counter around each timed
// operation and set-up and does not record one that was stalled.

// stealShare is the share of the VM's CPU time over an interval that
// the host may take before the interval counts as stalled. Counters
// tick in 10 ms steps, so an interval shorter than a tick per CPU
// counts as stalled when the counter moves at all.
const stealShare = 0.02

// cpuSteal reads the machine's steal and total CPU time, in ticks summed
// over all CPUs, from /proc/stat (zero where it is unreadable, which
// turns the steal check off).
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// stolen reports whether steal ticks out of total ticks over one
// interval exceed stealShare.
func stolen(steal, total uint64) bool {
	return float64(steal) > stealShare*float64(total)
}
