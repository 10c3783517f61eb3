package main

import (
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"esgrid/internal/ldapd"
	"esgrid/internal/transport"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share a session id.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Start   int64  `json:"start_ns"` // since the tracer was created
	End     int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index into the span list, -1 for none
	Session int32  `json:"session"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced path calls the same methods for free. Spans opened on the
// operation's goroutine nest through a stack; wrappers called from other
// goroutines still record, parented to whatever is open.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	stack   []int32
	session int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), session: -1}
}

func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if parent < 0 {
		t.session++
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(time.Since(t.t0)), Parent: parent, Session: t.session})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == id {
			t.stack = t.stack[:n-1]
			break
		}
	}
}

// do runs fn inside a span.
func (t *tracer) do(layer, name string, fn func() error) error {
	id := t.begin(layer, name)
	err := fn()
	t.end(id)
	return err
}

// selfMsPerOp is each layer's self time per operation: a span's duration
// less the time its child spans cover, summed by layer.
func (t *tracer) selfMsPerOp(ops int) map[string]float64 {
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Layer] += float64(s.End-s.Start-childNs[i]) / 1e6 / float64(ops)
	}
	return out
}

// connStats counts the traffic of every connection a tcpNet hands out.
type connStats struct {
	reads, writes, readBytes, writeBytes atomic.Int64

	mu     sync.Mutex
	dialNs []int64
}

type connCounts struct{ reads, writes, bytes int64 }

func (s *connStats) snapshot() connCounts {
	return connCounts{
		reads:  s.reads.Load(),
		writes: s.writes.Load(),
		bytes:  s.readBytes.Load() + s.writeBytes.Load(),
	}
}

func (c connCounts) since(o connCounts) connCounts {
	return connCounts{c.reads - o.reads, c.writes - o.writes, c.bytes - o.bytes}
}

// dialMs returns the connect times recorded since index from.
func (s *connStats) dialMs(from int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, ns := range s.dialNs[from:] {
		out = append(out, float64(ns)/1e6)
	}
	return out
}

func (s *connStats) dialCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dialNs)
}

type countConn struct {
	net.Conn
	s *connStats
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.s.reads.Add(1)
	c.s.readBytes.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.s.writes.Add(1)
	c.s.writeBytes.Add(int64(n))
	return n, err
}

type countListener struct {
	net.Listener
	s *connStats
}

func (l countListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, l.s}, nil
}

// tcpNet is the transport.Network the benchmark passes to clients and
// servers: real loopback TCP, with every connection counted and every
// connect spanned. Outbound connections close with SO_LINGER 0, so
// closing a session leaves no TIME_WAIT socket behind and back-to-back
// runs start from the same socket state.
type tcpNet struct {
	stats connStats
	tr    atomic.Pointer[tracer]
}

func (n *tcpNet) Dial(addr string) (transport.Conn, error) {
	tr := n.tr.Load()
	id := tr.begin("transport", "transport.connect")
	t0 := time.Now()
	c, err := net.Dial("tcp", addr)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := c.(*net.TCPConn).SetLinger(0); err != nil {
		c.Close()
		return nil, err
	}
	n.stats.mu.Lock()
	n.stats.dialNs = append(n.stats.dialNs, int64(d))
	n.stats.mu.Unlock()
	return countConn{c, &n.stats}, nil
}

func (n *tcpNet) Listen(addr string) (transport.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countListener{l, &n.stats}, nil
}

// countingDir wraps the ldapd client handed to the replica catalog: it
// counts directory round trips and spans each search.
type countingDir struct {
	ldapd.Directory
	searches atomic.Int64
	tr       atomic.Pointer[tracer]
}

func (d *countingDir) Search(base string, scope ldapd.Scope, filter string) ([]*ldapd.Entry, error) {
	d.searches.Add(1)
	tr := d.tr.Load()
	id := tr.begin("ldapd", "ldapd.Search")
	es, err := d.Directory.Search(base, scope, filter)
	tr.end(id)
	return es, err
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB (2^20 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// rssMB is the process's current resident set size in MB (2^20 bytes).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

type runtimeSnap struct {
	gcCPU, mutexWait float64
	sched            *metrics.Float64Histogram
	cpu              time.Duration
}

// runtimeDelta is what the Go runtime did over a phase.
type runtimeDelta struct {
	gcCPU          float64       // seconds
	mutexWait      float64       // seconds
	cpu            time.Duration // process CPU over the whole phase
	schedP99       float64       // seconds
	goroutinesPeak int
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		gcCPU:     s[0].Value.Float64(),
		mutexWait: s[1].Value.Float64(),
		sched:     s[2].Value.Float64Histogram(),
		cpu:       cpuTime(),
	}
}

func (r runtimeSnap) since(o runtimeSnap) runtimeDelta {
	counts := make([]uint64, len(r.sched.Counts))
	for i := range counts {
		counts[i] = r.sched.Counts[i] - o.sched.Counts[i]
	}
	return runtimeDelta{
		gcCPU:     r.gcCPU - o.gcCPU,
		mutexWait: r.mutexWait - o.mutexWait,
		cpu:       r.cpu - o.cpu,
		schedP99:  histQuantile(counts, r.sched.Buckets, 0.99),
	}
}

// histQuantile interpolates linearly inside the bucket that holds the
// q-quantile of a runtime/metrics histogram.
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < want {
			seen += float64(c)
			continue
		}
		lo, hi := bounds[i], bounds[i+1]
		if lo < 0 || lo != lo || hi > 1e300 {
			return hi
		}
		return lo + (hi-lo)*(want-seen)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// goroutineSampler polls the goroutine count every millisecond.
type goroutineSampler struct {
	stopc chan struct{}
	done  chan int
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stopc: make(chan struct{}), done: make(chan int, 1)}
	go func() {
		peak := runtime.NumGoroutine()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stopc:
				g.done <- peak
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return g
}

func (g *goroutineSampler) stop() int {
	close(g.stopc)
	return <-g.done
}

// heapAllocs is the runtime's cumulative count of heap-allocated bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeLayers adds the Go runtime's per-layer metrics for a phase.
func runtimeLayers(p *phase, m map[string]float64) {
	m["runtime.mutex_wait_s"] = p.rt.mutexWait / float64(p.loopOps)
	m["runtime.sched_latency_p99_us"] = p.rt.schedP99 * 1e6
	m["runtime.goroutines_peak"] = float64(p.rt.goroutinesPeak)
	m["runtime.alloc_mb"] = p.allocBytes / 1e6 / float64(len(p.ops))
	m["runtime.gc_cpu_share"] = p.rt.gcCPU / p.rt.cpu.Seconds()
}
