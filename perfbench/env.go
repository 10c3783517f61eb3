package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// header is the environment line printed first on every run.
type header struct {
	tcp    bool
	fields []string
}

func (h header) String() string { return "# env " + strings.Join(h.fields, " ") }

// timeWaitDrain bounds how long a tcp-* run waits for TIME_WAIT sockets
// left by an earlier process to drain before it starts; piled-up
// TIME_WAIT sockets slow every later connect.
const (
	timeWaitCalm  = 512
	timeWaitDrain = 60 * time.Second
)

func environment(workload string) header {
	h := header{tcp: strings.HasPrefix(workload, "tcp-")}
	add := func(k, v string) { h.fields = append(h.fields, k+"="+v) }
	add("workload", workload)
	add("nproc", strconv.Itoa(runtime.NumCPU()))
	add("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))
	add("cpu", strconv.Quote(cpuModel()))
	add("go", runtime.Version())
	add("commit", commit())
	add("source", sourceHash())
	if h.tcp {
		tw := timeWait()
		waited := time.Duration(0)
		for tw > timeWaitCalm && waited < timeWaitDrain {
			time.Sleep(time.Second)
			waited += time.Second
			tw = timeWait()
		}
		add("tcp_time_wait_start", strconv.Itoa(tw))
		add("tcp_time_wait_drained_s", strconv.Itoa(int(waited.Seconds())))
	}
	return h
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

// timeWait is the TIME_WAIT socket count from /proc/net/sockstat, or -1.
func timeWait() int {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(f); i += 2 {
			if f[i] == "tw" {
				if n, err := strconv.Atoi(f[i+1]); err == nil {
					return n
				}
			}
		}
	}
	return -1
}

// commit is the checked-out git commit when .git is present; benchmark
// checkouts are usually plain trees, so sourceHash identifies the code.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceHash is a short SHA-256 over the checkout's Go sources and module
// files, so two results can be told apart by the code they measured.
func sourceHash() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
