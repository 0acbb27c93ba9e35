package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cluster"
)

var bgctx = context.Background()

// specBandwidth is the container bandwidth of the 1024 MB spec every
// workload deploys with.
func specBandwidth() float64 { return cluster.Spec{MemoryMB: 1024}.BandwidthBps() }

// printHeader records the box, the code and the workload's fixed load on
// every output.
func printHeader(w *workload, seed int64) {
	fmt.Printf("box: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("code: commit=%s tree=%s\n", commit(), treeHash())
	fmt.Printf("workload: %s seed=%d lo=%g req/s hi=%g req/s p99 limit=%v ladder=%g*%g^k k<%d\n",
		w.name, seed, w.lo, w.hi, w.limit, w.ladder.base, w.ladder.ratio, w.ladder.steps)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// treeHash identifies the program's source: a SHA-256 over the paths and
// contents of go.mod and every file under cmd/ and internal/, read from the
// working directory (the repository root).
func treeHash() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are left out of the hash
			if err == nil && !d.IsDir() {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// stealTicks reads the box's total and stolen CPU ticks from /proc/stat:
// on a shared VM, time the host gives to other guests shows as steal and
// stretches every latency the run measures.
func stealTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuNow is the user+system CPU time, in ns, of this process and r's live
// worker processes.
func cpuNow(r *rig) int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	t := ru.Utime.Nano() + ru.Stime.Nano()
	for _, wk := range r.workers {
		t += procCPU(wk.cmd.Process.Pid)
	}
	return t
}

// procCPU reads utime+stime of pid from /proc/PID/stat, in ns.
func procCPU(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall.
	s := string(b)
	fs := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fs) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(fs[11], 10, 64)
	st, _ := strconv.ParseInt(fs[12], 10, 64)
	const clkTck = 100 // USER_HZ on Linux
	return (ut + st) * (1e9 / clkTck)
}

// resetHWM restarts the peak-RSS (VmHWM) count of this process and r's
// worker processes.
func resetHWM(r *rig) {
	pids := []string{"self"}
	for _, wk := range r.workers {
		pids = append(pids, strconv.Itoa(wk.cmd.Process.Pid))
	}
	for _, p := range pids {
		os.WriteFile("/proc/"+p+"/clear_refs", []byte("5"), 0) //nolint:errcheck // without it the peak covers the whole run
	}
}

// rssPeakMB sums VmHWM over this process and r's live worker processes.
func rssPeakMB(r *rig) float64 {
	kb := vmHWM("self")
	for _, wk := range r.workers {
		kb += vmHWM(strconv.Itoa(wk.cmd.Process.Pid))
	}
	return float64(kb) / 1024
}

func vmHWM(pid string) int64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}
