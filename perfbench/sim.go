package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"esgrid/internal/experiments"
	"esgrid/internal/gridftp"
	"esgrid/internal/simnet"
	"esgrid/internal/vtime"
)

// S11 at the BenchmarkScale configuration.
const (
	s11Clients     = 1024
	s11FileBytes   = 4 << 20
	s11SiteClients = 8
)

// s11Sites are the event-core sites whose sampled wall time the traced
// run reports; together they cover nearly all of S11's callback time.
var s11Sites = []string{"simnet.deliver", "simnet.completion", "simnet.growth", "simnet.linger"}

// s11 is sim-s11: the S11 scalability run driven from vtime, simnet and
// gridftp calls so that the event core's and allocator's own counters
// can be read. It builds exactly the topology experiments.RunScale does,
// and every run must match RunScale's bytes and allocator counts.
type s11 struct {
	seed int64
	ref  experiments.ScaleResult
	rec  []s11Rec
}

type s11Rec struct {
	sim           time.Duration
	bytes         int64
	passes, flows uint64
	csrHits       uint64
	csrLookups    uint64
	core          vtime.CoreStats
	wallNs        map[string]int64
}

func newS11(seed int64) (env, error) {
	s := &s11{seed: seed}
	// The reference run doubles as the warm-up.
	ref, err := experiments.RunScale(seed, []int{s11Clients}, s11FileBytes>>20)
	if err != nil {
		return nil, err
	}
	s.ref = ref
	return s, nil
}

func (s *s11) phaseStart() {}

func (s *s11) prepare(i int) error {
	s.rec = append(s.rec, s11Rec{})
	return nil
}

func (s *s11) run(i int, tr *tracer) error {
	r := &s.rec[i]
	clk := vtime.NewSim(s.seed)
	if tr != nil {
		clk.EnableWallProfile()
	}
	n := simnet.New(clk)
	nSites := (s11Clients + s11SiteClients - 1) / s11SiteClients
	id := tr.begin("simnet", "simnet.topology")
	for k := 0; k < nSites; k++ {
		srv, rtr := fmt.Sprintf("srv%04d", k), fmt.Sprintf("rtr%04d", k)
		n.AddHost(srv, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddNode(rtr)
		n.AddLink(srv, rtr, simnet.LinkConfig{CapacityBps: 1e9, Delay: time.Millisecond})
	}
	for c := 0; c < s11Clients; c++ {
		cli, rtr := fmt.Sprintf("cli%04d", c), fmt.Sprintf("rtr%04d", c/s11SiteClients)
		n.AddHost(cli, simnet.HostConfig{DefaultBufferBytes: 1 << 20})
		n.AddLink(cli, rtr, simnet.LinkConfig{CapacityBps: 100e6, Delay: 4 * time.Millisecond})
	}
	tr.end(id)
	store := gridftp.NewVirtualStore()
	store.Put("f", s11FileBytes)

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	id = tr.begin("vtime", "vtime.Run")
	clk.Run(func() {
		for k := 0; k < nSites; k++ {
			host := n.Host(fmt.Sprintf("srv%04d", k))
			srv, err := gridftp.NewServer(gridftp.Config{Clock: clk, Net: host, Host: host.Name(), Store: store})
			if err != nil {
				fail(err)
				return
			}
			l, err := host.Listen(":2811")
			if err != nil {
				fail(err)
				return
			}
			clk.Go(func() { srv.Serve(l) })
		}
		wg := vtime.NewWaitGroup(clk)
		for c := 0; c < s11Clients; c++ {
			c := c
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(time.Duration(c) * 500 * time.Microsecond)
				cli, err := gridftp.Dial(gridftp.ClientConfig{
					Clock: clk, Net: n.Host(fmt.Sprintf("cli%04d", c)),
					Parallelism: 2, BufferBytes: 1 << 20,
				}, fmt.Sprintf("srv%04d:2811", c/s11SiteClients))
				if err != nil {
					fail(err)
					return
				}
				defer cli.Close()
				st, err := cli.Get("f", gridftp.NewVirtualSink(s11FileBytes))
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				r.bytes += st.Bytes
				mu.Unlock()
			})
		}
		wg.Wait()
		r.sim = clk.Now().Sub(vtime.Epoch)
	})
	tr.end(id)
	r.passes, r.flows = n.AllocStats()
	r.csrHits, r.csrLookups = n.CSRStats()
	r.core = clk.CoreStats()
	if prof := clk.WallProfile(); prof != nil {
		r.wallNs = map[string]int64{}
		for site, ns := range prof {
			r.wallNs[vtime.SiteName(vtime.Site(site))] += ns
		}
	}
	return firstErr
}

func (s *s11) verify(i int) error {
	r := s.rec[i]
	if want := int64(s11Clients) * s11FileBytes; r.bytes != want || r.bytes != s.ref.Bytes[0] {
		return fmt.Errorf("delivered %d bytes, want %d", r.bytes, want)
	}
	if r.passes != s.ref.AllocPasses[0] || r.flows != s.ref.AllocFlows[0] {
		return fmt.Errorf("allocator did %d passes over %d flows; RunScale(seed %d) did %d over %d",
			r.passes, r.flows, s.seed, s.ref.AllocPasses[0], s.ref.AllocFlows[0])
	}
	if r.sim != s.ref.SimElapsed[0] {
		return fmt.Errorf("simulated %v; RunScale(seed %d) simulated %v", r.sim, s.seed, s.ref.SimElapsed[0])
	}
	return nil
}

func (s *s11) headline(p *phase, add func(string, float64, string, int)) {
	add("sim_s_per_wall_s", simPerWall(p, func(i int) time.Duration { return s.rec[i].sim }), "s/s", len(p.ops))
}

// simPerWall is the median over a phase's operations of simulated
// seconds per wall-clock second.
func simPerWall(p *phase, sim func(i int) time.Duration) float64 {
	var r []float64
	for k, i := range p.idx {
		r = append(r, sim(i).Seconds()/p.ops[k].Seconds())
	}
	return quantile(r, 0.5)
}

func (s *s11) layers(p *phase, m map[string]float64) error {
	var fired, passes, flows, hits, lookups uint64
	var heapMax int
	var wall time.Duration
	sites := map[string]int64{}
	for k, i := range p.idx {
		r, d := s.rec[i], p.ops[k]
		if r.wallNs == nil {
			return errors.New("sim-s11 ran untraced")
		}
		fired += r.core.Fired
		passes += r.passes
		flows += r.flows
		hits += r.csrHits
		lookups += r.csrLookups
		heapMax = max(heapMax, r.core.HeapMax)
		wall += d
		for name, ns := range r.wallNs {
			sites[name] += ns
		}
	}
	n := float64(len(p.ops))
	m["vtime.events_fired"] = float64(fired) / n
	m["vtime.events_per_wall_s"] = float64(fired) / wall.Seconds()
	m["vtime.heap_max"] = float64(heapMax)
	for _, site := range s11Sites {
		m["vtime.wall_ns."+site] = float64(sites[site]) / n
	}
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return sites[names[a]] > sites[names[b]] })
	fmt.Print("# sim-s11 sampled wall time per run by event site:")
	for _, name := range names {
		if sites[name] > 0 {
			fmt.Printf(" %s=%.3gms", name, float64(sites[name])/n/1e6)
		}
	}
	fmt.Println()
	m["simnet.alloc_passes"] = float64(passes) / n
	m["simnet.flows_per_pass"] = float64(flows) / float64(passes)
	m["simnet.csr_hit_ratio"] = float64(hits) / float64(lookups)
	return nil
}

func (s *s11) close() {}

// figure8 is sim-figure8: experiments.RunFigure8 at the BenchmarkFigure8
// configuration (2 h window, faults on), a fresh simulation seed per
// operation.
type figure8 struct {
	seed int64
	rec  []figure8Rec
}

type figure8Rec struct {
	cfgSeed                       int64
	plateau                       float64
	transfers, restarts, zeroBkts int
	coreRecords                   uint64
}

const figure8Window = 2 * time.Hour

func newFigure8(seed int64) (env, error) { return &figure8{seed: seed}, nil }

func (f *figure8) phaseStart() {}

func (f *figure8) prepare(i int) error {
	f.rec = append(f.rec, figure8Rec{cfgSeed: f.seed*1_000_003 + int64(i)})
	return nil
}

func (f *figure8) run(i int, tr *tracer) error {
	r := &f.rec[i]
	cfg := experiments.DefaultFigure8Config()
	cfg.Duration = figure8Window
	cfg.Seed = r.cfgSeed
	return tr.do("experiments", "experiments.RunFigure8", func() error {
		res, err := experiments.RunFigure8(cfg)
		if err != nil {
			return err
		}
		r.plateau, r.transfers, r.restarts, r.zeroBkts = res.PlateauBps, res.Transfers, res.Restarts, res.ZeroBuckets
		r.coreRecords = res.Flight.Stats().CoreWritten
		return nil
	})
}

// verify holds the run to the shape TestFigure8ShapeShort checks.
func (f *figure8) verify(i int) error {
	r := f.rec[i]
	switch {
	case r.plateau < 70e6 || r.plateau > 85e6:
		return fmt.Errorf("seed %d: plateau %.1f Mb/s, want 70-85", r.cfgSeed, r.plateau/1e6)
	case r.restarts == 0:
		return fmt.Errorf("seed %d: no restarts despite the fault schedule", r.cfgSeed)
	case r.zeroBkts == 0:
		return fmt.Errorf("seed %d: no stalled buckets despite outages", r.cfgSeed)
	case r.transfers < 10:
		return fmt.Errorf("seed %d: only %d transfers completed", r.cfgSeed, r.transfers)
	}
	return nil
}

func (f *figure8) headline(p *phase, add func(string, float64, string, int)) {
	add("sim_s_per_wall_s", simPerWall(p, func(int) time.Duration { return figure8Window }), "s/s", len(p.ops))
}

func (f *figure8) layers(p *phase, m map[string]float64) error {
	var recs uint64
	var transfers, restarts int
	for _, i := range p.idx {
		recs += f.rec[i].coreRecords
		transfers += f.rec[i].transfers
		restarts += f.rec[i].restarts
	}
	n := float64(len(p.ops))
	m["vtime.core_records"] = float64(recs) / n
	m["gridftp.transfers"] = float64(transfers) / n
	m["gridftp.restarts"] = float64(restarts) / n
	return nil
}

func (f *figure8) close() {}
