package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// warmCPUs spins one goroutine per CPU for d before anything is timed.
// On small virtual hosts the first multi-threaded work after an idle
// spell runs markedly slow (vCPU wake-up and frequency ramp); warming
// every CPU first makes a run independent of what the host did before it.
// It returns how long it spun and how many rounds all CPUs completed.
func warmCPUs(d time.Duration) (time.Duration, uint64) {
	const round = 1 << 16
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var rounds, sink atomic.Uint64
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, n := uint64(i+1), uint64(0)
			for ; time.Now().Before(deadline); n += round {
				for j := 0; j < round; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			rounds.Add(n)
			sink.Add(x) // keeps the loop from being optimized away
		}()
	}
	wg.Wait()
	return time.Since(start), rounds.Load()
}

// cpuStat is the aggregate CPU line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads the aggregate CPU line of /proc/stat (zero if absent).
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of CPU time stolen since an earlier reading.
func (s cpuStat) stealPct(since cpuStat) float64 {
	if s.total <= since.total {
		return 0
	}
	return 100 * float64(s.steal-since.steal) / float64(s.total-since.total)
}

// hostMeta describes the host and build, so results from hosts with
// different CPU counts are never compared with each other.
func hostMeta(root string) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	digest, err := sourceDigest(root)
	if err != nil {
		digest = "error: " + err.Error()
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"commit_dirty":  dirty,
		"source_sha256": digest,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// sourceDigest hashes the Go sources, go.mod files and testdata under
// root (skipping dot-directories), identifying the code measured when the
// checkout carries no version-control metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" || strings.HasPrefix(rel, "testdata"+string(filepath.Separator)) {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// selfCPU is the user+system CPU this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads the user+system CPU of another process from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of pid
// ("self" for this process) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
