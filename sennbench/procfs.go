package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procSample is one reading of a process's kernel counters.
type procSample struct {
	CPUSeconds float64 // utime + stime, all threads
	ReadCalls  int64   // syscr: read-family syscalls
	WriteCalls int64   // syscw: write-family syscalls
	CtxVol     int64   // voluntary context switches, summed over live threads
	CtxInvol   int64   // involuntary context switches, summed over live threads
	HWMKiB     int64   // VmHWM: peak resident set
}

// readProc samples /proc/<pid>/{stat,io,status}.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	if s.CPUSeconds, err = parseStatCPU(string(stat)); err != nil {
		return s, err
	}
	io, err := os.ReadFile(dir + "io")
	if err != nil {
		return s, err
	}
	kv := parseKV(string(io))
	s.ReadCalls, s.WriteCalls = kv["syscr"], kv["syscw"]
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	s.HWMKiB = parseKV(string(status))["VmHWM"]
	// Context switches in /proc/<pid>/status count the main thread only;
	// the per-thread files under task/ give the whole process.
	tasks, err := os.ReadDir(dir + "task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "task/" + t.Name() + "/status")
		if err != nil {
			continue // the thread exited between ReadDir and ReadFile
		}
		kv := parseKV(string(b))
		s.CtxVol += kv["voluntary_ctxt_switches"]
		s.CtxInvol += kv["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// parseStatCPU returns utime+stime in seconds from a /proc/<pid>/stat line.
// The command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(line string) (float64, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("procfs: stat: no command field")
	}
	// After ") " come fields 3 (state) onward; utime and stime are fields
	// 14 and 15, i.e. indices 11 and 12 here.
	f := strings.Fields(line[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat: %d fields after command", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseKV reads "key: value [unit]" lines (the io and status formats) into
// integers; lines whose first value is not an integer are skipped.
func parseKV(text string) map[string]int64 {
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(k)] = n
	}
	return out
}

// sub returns the counter deltas b - a (HWM is taken from b).
func (b procSample) sub(a procSample) procSample {
	return procSample{
		CPUSeconds: b.CPUSeconds - a.CPUSeconds,
		ReadCalls:  b.ReadCalls - a.ReadCalls,
		WriteCalls: b.WriteCalls - a.WriteCalls,
		CtxVol:     b.CtxVol - a.CtxVol,
		CtxInvol:   b.CtxInvol - a.CtxInvol,
		HWMKiB:     b.HWMKiB,
	}
}
