// Command esgperf is esgrid's benchmark. It drives one of four
// closed-loop workloads against the repository's public layer APIs,
// checks every output, and prints each metric by name with its unit and
// sample count. The last line of standard output is a JSON result object.
//
//	bash perfbench/run.sh --workload tcp-bulk --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	tcp-bulk     one GSI GridFTP session over loopback TCP alternating a
//	             4 MiB RETR and a 4 MiB STOR on a MemStore
//	tcp-session  per operation: replica lookup over ldapd, fresh GSI Dial,
//	             1 MiB Get, a 1 MiB Put on every 4th operation, Close
//	sim-s11      S11 at 1024 clients with 4 MiB files, in virtual time
//	sim-figure8  Figure 8 with a 2 h window and faults on, in virtual time
//
// With --trace 0 the run is split into child processes, one after
// another, and the result carries the end-to-end metrics. With --trace 1
// one process traces every other block of operations of the selected
// workload, runs a short traced pass of every other workload, and the
// result carries the per-layer metrics; spans are written once, at exit,
// under .bench_build/trace/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is one workload's running environment. Operations are numbered
// from 0 across warm-up and every measured phase, so rotations (file
// choice, STOR names, simulation seeds) continue where they left off.
type env interface {
	// prepare readies operation i outside the timed interval.
	prepare(i int) error
	// run performs operation i; the caller times it.
	run(i int, tr *tracer) error
	// verify checks operation i's outputs outside the timed interval.
	verify(i int) error
	// headline adds the workload's user-facing metrics over a phase.
	headline(p *phase, add func(name string, v float64, unit string, n int))
	// phaseStart marks the start of a measured phase for the workload's
	// own traffic counters.
	phaseStart()
	// layers adds the workload's per-layer metrics over a traced phase.
	layers(p *phase, m map[string]float64) error
	close()
}

type workload struct {
	name   string
	warmup int // operations run inside set-up, before anything is timed
	setup  func(seed int64) (env, error)
	// short is the operation count of a traced pass when another
	// workload is the one selected.
	short int
	// oneP runs the workload with GOMAXPROCS 1. Client and servers of a
	// tcp-* workload share this process; on one P an operation's wall
	// time is their work plus the kernel's, not how quickly a shared
	// host wakes a second vCPU.
	oneP bool
}

var workloads = []workload{
	{name: "tcp-bulk", warmup: 4, short: 64, setup: newBulk, oneP: true},
	{name: "tcp-session", warmup: 32, short: 300, setup: newSession, oneP: true},
	{name: "sim-s11", warmup: 0, short: 2, setup: newS11},
	{name: "sim-figure8", warmup: 1, short: 2, setup: newFigure8},
}

// hostProcs is GOMAXPROCS as the process started.
var hostProcs = runtime.GOMAXPROCS(0)

// useProcs sets GOMAXPROCS for workload w.
func useProcs(w workload) {
	if w.oneP {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(hostProcs)
	}
}

// segments is how many child processes an untraced run is split into.
// On this benchmark's host, operation speed differs by up to 30% between
// processes of the same build and seed, while it holds within one (5 s
// quarters of one run agreed within 8%); a median across processes is
// steadier than any single process. Each child sets the workload up
// afresh, so setup_s is also a median of segments set-ups.
const segments = 5

func main() {
	name := flag.String("workload", "", "workload name (tcp-bulk, tcp-session, sim-s11, sim-figure8)")
	seed := flag.Int64("seed", 1, "seed for file contents, file choice and simulation seeds")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	segment := flag.Int("segment", -1, "internal: measure one segment of an untraced run, as a child process")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *segment); err != nil {
		fmt.Fprintln(os.Stderr, "esgperf:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds int, traced bool, segment int) error {
	w, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if err := checkCheckout(); err != nil {
		return err
	}
	if err := checkSpec(); err != nil {
		return err
	}
	useProcs(w)
	res := result{Metrics: map[string]metric{}}
	budget := time.Duration(seconds) * time.Second
	if segment >= 0 {
		// Each segment gets inputs of its own, still a function of --seed.
		if err := plainRun(w, seed*segments+int64(segment), budget, &res); err != nil {
			return err
		}
		return printResult(res)
	}

	hdr := environment(w.name)
	fmt.Println(hdr.String())
	var err error
	if traced {
		err = tracedRun(w, seed, budget, &res)
	} else {
		err = segmentedRun(w, seed, seconds, &res)
	}
	if err != nil {
		return err
	}
	if hdr.tcp {
		fmt.Printf("# tcp_time_wait_end=%d\n", timeWait())
	}
	return printResult(res)
}

func printResult(res result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value", name)
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// segmentedRun runs the untraced measurement as child processes, one after
// another, and reports each metric as the mean across them without the
// highest and lowest, with the samples of all of them as its count. The
// per-process speeds cluster in modes, and a median of a few draws from
// modes jumps between them where a trimmed mean moves smoothly.
func segmentedRun(w workload, seed int64, seconds int, res *result) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	k := min(segments, seconds)
	type agg struct {
		vals []float64
		unit string
		n    int
	}
	lines := map[string]*agg{}
	var order []string
	for s := 0; s < k; s++ {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds/k), "--segment", strconv.Itoa(s))
		cmd.Stderr = os.Stderr
		// A child must not outlive a parent that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("segment %d: %w", s, err)
		}
		rows := strings.Split(strings.TrimSpace(string(out)), "\n")
		var seg result
		if err := json.Unmarshal([]byte(rows[len(rows)-1]), &seg); err != nil {
			return fmt.Errorf("segment %d result: %w", s, err)
		}
		res.Attempted += seg.Attempted
		res.Failed += seg.Failed
		for _, row := range rows {
			var name, unit string
			var v float64
			var n int
			if _, err := fmt.Sscanf(row, "metric %s %g %s n=%d", &name, &v, &unit, &n); err != nil {
				continue
			}
			if lines[name] == nil {
				lines[name] = &agg{unit: unit}
				order = append(order, name)
			}
			lines[name].vals = append(lines[name].vals, v)
			lines[name].n += n
		}
	}
	for _, d := range endToEnd {
		if lines[d.name] == nil {
			return fmt.Errorf("no segment reported %s", d.name)
		}
	}
	fmt.Printf("# %s: %d segments, %d operations, %d failed; op_p50_ms by segment %.4g\n",
		w.name, k, res.Attempted, res.Failed, lines["op_p50_ms"].vals)
	out := printer{gated: res.Metrics}
	out.line("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	gated := map[string]bool{}
	for _, d := range endToEnd {
		gated[d.name] = true
	}
	for _, name := range order {
		a := lines[name]
		if gated[name] {
			out.gate(name, trimmedMean(a.vals), a.unit, a.n)
		} else {
			out.line(name, trimmedMean(a.vals), a.unit, a.n)
		}
	}
	return nil
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkCheckout refuses to run outside an esgrid checkout, so a bare
// copy of the benchmark fails fast instead of measuring nothing.
func checkCheckout() error {
	for _, f := range []string{"go.mod", "internal/gridftp", "internal/vtime"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("not at the root of an esgrid checkout: %w", err)
		}
	}
	return nil
}

// setUpOnce builds the workload and runs its warm-up operations; the
// duration covers both.
func setUpOnce(w workload, seed int64) (env, time.Duration, error) {
	t0 := time.Now()
	e, err := w.setup(seed)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warmup; i++ {
		if err := once(e, i, nil, nil); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	return e, time.Since(t0), nil
}

// plainRun sets the workload up and measures the end-to-end metrics with
// tracing off, in this process.
func plainRun(w workload, seed int64, budget time.Duration, res *result) error {
	e, setup, err := setUpOnce(w, seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer e.close()
	next := w.warmup
	p, _ := measure(e, &next, budget, 0, nil, false)
	res.add(p)
	out := printer{gated: res.Metrics}
	e.headline(p, out.line)
	out.line("max_rss_mb", maxRSSMB(), "MB", 1)
	n := len(p.ops)
	if n == 0 {
		return errors.New("no operation completed in the measured interval")
	}
	values := map[string]float64{
		"op_p50_ms":     quantile(p.opsMs(), 0.5),
		"op_p90_ms":     quantile(p.opsMs(), 0.9),
		"cpu_ms_per_op": p.cpu.Seconds() * 1e3 / float64(n),
		"setup_s":       setup.Seconds(),
		"rss_mb":        quantile(p.rss, 0.5),
	}
	samples := map[string]int{"setup_s": 1}
	for _, d := range endToEnd {
		if samples[d.name] == 0 {
			samples[d.name] = n
		}
		out.gate(d.name, values[d.name], d.unit, samples[d.name])
	}
	return nil
}

// tracedRun measures the per-layer metrics: the selected workload with
// every other operation traced, then a short traced pass of each other
// workload. Spans are written once, at the end.
func tracedRun(w workload, seed int64, budget time.Duration, res *result) error {
	e, _, err := setUpOnce(w, seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer e.close()
	layer := map[string]float64{}
	self := map[string]map[string]float64{}
	var spans []span

	next := w.warmup
	tr := newTracer()
	plain, p := measure(e, &next, budget, 0, tr, true)
	res.add(plain)
	res.add(p)
	if len(plain.ops) == 0 || len(p.ops) == 0 {
		return errors.New("no operation completed in the measured interval")
	}
	if err := e.layers(p, layer); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	runtimeLayers(p, layer)
	layer["trace.overhead_share"] = quantile(p.opsMs(), 0.5)/quantile(plain.opsMs(), 0.5) - 1
	spans = append(spans, tr.spans...)
	self[w.name] = tr.selfMsPerOp(len(p.ops))
	fmt.Printf("# traced %s: %d untraced and %d traced operations, alternating; tracing overhead %+.2f%% on op p50\n",
		w.name, len(plain.ops), len(p.ops), 100*layer["trace.overhead_share"])

	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		useProcs(o)
		oe, _, err := setUpOnce(o, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		n := o.warmup
		otr := newTracer()
		_, op := measure(oe, &n, 0, o.short, otr, false)
		res.add(op)
		if len(op.ops) > 0 {
			err = oe.layers(op, layer)
		} else {
			err = errors.New("no traced operation completed")
		}
		oe.close()
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		spans = append(spans, otr.spans...)
		self[o.name] = otr.selfMsPerOp(len(op.ops))
	}
	printSelf(self)
	path, err := writeTrace(w.name, seed, spans, self, layer)
	if err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	out := printer{gated: res.Metrics}
	for _, d := range perLayer {
		v, ok := layer[d.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		out.gate(d.name, v, d.unit, 1)
	}
	return nil
}

// once runs operation i with its preparation and check. When p is
// non-nil a successful operation's wall time, process CPU and heap
// allocation are added to it; preparation and checking are not timed.
func once(e env, i int, tr *tracer, p *phase) error {
	if err := e.prepare(i); err != nil {
		return err
	}
	a0, c0 := heapAllocs(), cpuTime()
	t0 := time.Now()
	id := tr.begin("op", "op")
	err := e.run(i, tr)
	tr.end(id)
	d := time.Since(t0)
	c, a := cpuTime()-c0, heapAllocs()-a0
	if err == nil {
		err = e.verify(i)
	}
	if err == nil && p != nil {
		p.rss = append(p.rss, rssMB())
		p.idx = append(p.idx, i)
		p.ops = append(p.ops, d)
		p.cpu += c
		p.allocBytes += float64(a)
	}
	return err
}

// phase is the operations of one measured loop that share a tracing
// mode. Traffic and runtime counters cover the whole loop (loopOps
// operations), since an alternating loop cannot split them.
type phase struct {
	idx        []int           // operation numbers of the successful operations
	ops        []time.Duration // their wall times
	rss        []float64       // resident set size after each, MB
	cpu        time.Duration   // process CPU inside the timed intervals
	allocBytes float64         // heap allocated inside the timed intervals
	attempted  int
	failed     int
	loopOps    int
	rt         runtimeDelta
}

func (p *phase) opsMs() []float64 {
	out := make([]float64, len(p.ops))
	for i, d := range p.ops {
		out[i] = float64(d) / 1e6
	}
	return out
}

// measure runs operations until budget elapses, or exactly count of them
// when count > 0. Without a tracer every operation lands in plain; with
// one every operation is traced, or with alternate every other block, so
// that the plain and traced operations run under the same conditions
// and differ only by tracing. Failed operations are counted and the loop
// goes on.
func measure(e env, next *int, budget time.Duration, count int, tr *tracer, alternate bool) (plain, traced *phase) {
	plain, traced = &phase{}, &phase{}
	var gs *goroutineSampler
	if tr != nil {
		gs = startGoroutineSampler()
	}
	e.phaseStart()
	r0 := readRuntime()
	start := time.Now()
	k := 0
	for ; count > 0 && k < count || count == 0 && time.Since(start) < budget; k++ {
		i := *next
		*next++
		p, t := plain, (*tracer)(nil)
		// Alternate in blocks of four, so a pattern that repeats every
		// fourth operation (tcp-session's Put) falls equally on both sides.
		if tr != nil && (!alternate || k/4%2 == 1) {
			p, t = traced, tr
		}
		p.attempted++
		if err := once(e, i, t, p); err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "esgperf: operation %d: %v\n", i, err)
		}
	}
	rt := readRuntime().since(r0)
	if gs != nil {
		rt.goroutinesPeak = gs.stop()
	}
	for _, p := range []*phase{plain, traced} {
		p.rt, p.loopOps = rt, k
	}
	return plain, traced
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// printer writes "metric <name> <value> <unit> n=<samples>" lines; gate
// also records the value in the JSON result.
type printer struct{ gated map[string]metric }

func (o printer) line(name string, v float64, unit string, n int) {
	fmt.Printf("metric %-34s %-22s %-8s n=%d\n", name, strconv.FormatFloat(v, 'g', -1, 64), unit, n)
}

func (o printer) gate(name string, v float64, unit string, n int) {
	o.line(name, v, unit, n)
	o.gated[name] = metric{Value: v, Unit: unit}
}

func printSelf(self map[string]map[string]float64) {
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var layers []string
		for l := range self[n] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Printf("# self time per op, %s:", n)
		for _, l := range layers {
			fmt.Printf(" %s=%.4gms", l, self[n][l])
		}
		fmt.Println()
	}
}

func writeTrace(name string, seed int64, spans []span, self map[string]map[string]float64, layer map[string]float64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	doc := struct {
		Workload string                        `json:"workload"`
		Seed     int64                         `json:"seed"`
		SelfMs   map[string]map[string]float64 `json:"self_ms_per_op"`
		Layers   map[string]float64            `json:"per_layer"`
		Spans    []span                        `json:"spans"`
	}{name, seed, self, layer, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// trimmedMean is the mean of xs without its lowest and highest values
// when there are more than two.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile is the linear-interpolation quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
