package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"esgrid/internal/gridftp"
	"esgrid/internal/gsi"
	"esgrid/internal/ldapd"
	"esgrid/internal/replica"
	"esgrid/internal/transport"
	"esgrid/internal/vtime"
)

const (
	bulkBytes    = 4 << 20
	sessionBytes = 1 << 20
	sbufBytes    = 1 << 20
	ceilingReps  = 10
	// putNames is the fixed rotation of STOR targets: the write set stays
	// bounded however long a run lasts.
	putNames = 2
	// catalogFiles logical files are registered; sessionWorkingSet of
	// them are stored on the GridFTP server and fetched.
	catalogFiles      = 2048
	sessionWorkingSet = 64
	collection        = "pcm.b06"
)

// seeded returns n bytes drawn from a generator seeded by (seed, stream).
func seeded(seed int64, stream uint64, n int) []byte {
	r := rand.New(rand.NewPCG(uint64(seed), stream))
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b
}

// grid is the GSI trust fabric plus a GridFTP server on loopback TCP.
type grid struct {
	net    *tcpNet
	store  *gridftp.MemStore
	srv    *gridftp.Server
	ln     transport.Listener
	addr   string
	user   *gsi.Config
	server *gsi.Config
	wg     sync.WaitGroup
}

func startGrid() (*grid, error) {
	ca, err := gsi.NewCA("/O=ESG/CN=ESG CA")
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore(ca)
	now := time.Now()
	srvID, err := ca.Issue("/O=ESG/CN=gridftp-server", now, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	userID, err := ca.Issue("/O=ESG/CN=climate-user", now, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	g := &grid{
		net:    &tcpNet{},
		store:  gridftp.NewMemStore(),
		user:   &gsi.Config{Identity: userID, Trust: trust},
		server: &gsi.Config{Identity: srvID, Trust: trust},
	}
	g.srv, err = gridftp.NewServer(gridftp.Config{
		Clock: vtime.Real{}, Net: g.net, Host: "127.0.0.1", Store: g.store, Auth: g.server,
	})
	if err != nil {
		return nil, err
	}
	g.ln, err = g.net.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.addr = g.ln.Addr().String()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.srv.Serve(g.ln)
	}()
	return g, nil
}

func (g *grid) dial(addr string) (*gridftp.Client, error) {
	return gridftp.Dial(gridftp.ClientConfig{
		Clock: vtime.Real{}, Net: g.net, Auth: g.user,
		BufferBytes: sbufBytes, Parallelism: 1, CacheDataChannels: true,
	}, addr)
}

func (g *grid) close() {
	g.srv.Close()
	g.ln.Close()
	g.wg.Wait()
}

func putName(i int) string { return fmt.Sprintf("stor-%d.dat", i%putNames) }

// bulk is tcp-bulk: one long-lived GSI session, cached data channel, one
// stream, alternating a RETR into a BytesSink with a STOR from a
// BytesSource.
type bulk struct {
	*grid
	cli  *gridftp.Client
	src  []byte // the served file, as the store holds it
	sink *gridftp.BytesSink
	get  []time.Duration // per operation
	put  []time.Duration
	mark connCounts // traffic counters at the start of the phase
	ceil []float64  // raw loopback rates taken around the phase, GB/s
	err  error      // from the ceiling probe at the start of the phase
}

func newBulk(seed int64) (env, error) {
	g, err := startGrid()
	if err != nil {
		return nil, err
	}
	g.store.Put("retr.dat", seeded(seed, 1, bulkBytes))
	src, _ := g.store.Get("retr.dat")
	b := &bulk{grid: g, src: src}
	if b.cli, err = g.dial(g.addr); err != nil {
		g.close()
		return nil, err
	}
	return b, nil
}

// phaseStart takes half the loopback ceiling samples; layers takes the
// other half after the phase, so the ceiling brackets the transfers.
func (b *bulk) phaseStart() {
	b.ceil, b.err = loopbackCeiling(b.src, ceilingReps)
	b.mark = b.net.stats.snapshot()
}

func (b *bulk) prepare(i int) error {
	b.sink = gridftp.NewBytesSink(bulkBytes)
	b.get = append(b.get, 0)
	b.put = append(b.put, 0)
	return nil
}

func (b *bulk) run(i int, tr *tracer) error {
	b.net.tr.Store(tr)
	t0 := time.Now()
	err := tr.do("gridftp", "gridftp.Get", func() error {
		_, err := b.cli.Get("retr.dat", b.sink)
		return err
	})
	if err != nil {
		return fmt.Errorf("RETR: %w", err)
	}
	t1 := time.Now()
	err = tr.do("gridftp", "gridftp.Put", func() error {
		_, err := b.cli.Put(putName(i), gridftp.NewBytesSource(b.src))
		return err
	})
	if err != nil {
		return fmt.Errorf("STOR: %w", err)
	}
	b.get[i], b.put[i] = t1.Sub(t0), time.Since(t1)
	return nil
}

func (b *bulk) verify(i int) error {
	sink := b.sink
	b.sink = nil
	if err := sink.Complete(); err != nil {
		return err
	}
	if !bytes.Equal(sink.Bytes(), b.src) {
		return errors.New("RETR content differs from the stored file")
	}
	if got, ok := b.store.Get(putName(i)); !ok || !bytes.Equal(got, b.src) {
		return fmt.Errorf("STOR %s content differs from its source", putName(i))
	}
	return nil
}

// gbps is the rate in GB/s of moving size bytes in each of the phase's
// operations, as dur reports them.
func gbps(size int, p *phase, dur []time.Duration) []float64 {
	var out []float64
	for _, i := range p.idx {
		out = append(out, float64(size)/dur[i].Seconds()/1e9)
	}
	return out
}

func (b *bulk) headline(p *phase, add func(string, float64, string, int)) {
	get, put := gbps(bulkBytes, p, b.get), gbps(bulkBytes, p, b.put)
	add("get_gbps", quantile(get, 0.5), "GB/s", len(get))
	add("put_gbps", quantile(put, 0.5), "GB/s", len(put))
	gb := 2 * bulkBytes * float64(len(p.ops)) / 1e9
	add("cpu_s_per_gb", p.cpu.Seconds()/gb, "s/GB", len(p.ops))
}

func (b *bulk) layers(p *phase, m map[string]float64) error {
	get, put := gbps(bulkBytes, p, b.get), gbps(bulkBytes, p, b.put)
	c := b.net.stats.snapshot().since(b.mark)
	after, err := loopbackCeiling(b.src, ceilingReps)
	if err = errors.Join(b.err, err); err != nil {
		return fmt.Errorf("loopback ceiling: %w", err)
	}
	ceil := quantile(append(b.ceil, after...), 0.5)
	m["gridftp.get_ms"] = bulkBytes / 1e6 / quantile(get, 0.5)
	m["gridftp.put_ms"] = bulkBytes / 1e6 / quantile(put, 0.5)
	m["transport.ceiling_gbps"] = ceil
	m["gridftp.get_of_ceiling"] = quantile(get, 0.5) / ceil
	m["gridftp.put_of_ceiling"] = quantile(put, 0.5) / ceil
	loopMB := 2 * bulkBytes * float64(p.loopOps) / 1e6
	m["transport.reads_per_mb"] = float64(c.reads) / loopMB
	m["transport.writes_per_mb"] = float64(c.writes) / loopMB
	m["runtime.alloc_mb_per_gb"] = p.allocBytes / 1e6 / (2 * bulkBytes * float64(len(p.ops)) / 1e9)
	return nil
}

func (b *bulk) close() {
	b.cli.Close()
	b.grid.close()
}

// loopbackCeiling times raw TCP reads of len(src) bytes over one
// loopback connection and returns the rates in GB/s of reps reads after
// the first (which pays for page faults and window growth): the most a
// single-stream GridFTP transfer of the same size could get.
func loopbackCeiling(src []byte, reps int) ([]float64, error) {
	dst := make([]byte, len(src))
	var rates []float64
	err := overLoopback(func(c net.Conn) error {
		var req [1]byte
		for k := 0; k <= reps; k++ {
			if _, err := io.ReadFull(c, req[:]); err != nil {
				return err
			}
			if _, err := c.Write(src); err != nil {
				return err
			}
		}
		return nil
	}, func(c net.Conn) error {
		for k := 0; k <= reps; k++ {
			// Like a RETR, each read is requested and then streamed.
			t0 := time.Now()
			if _, err := c.Write([]byte{'R'}); err != nil {
				return err
			}
			if _, err := io.ReadFull(c, dst); err != nil {
				return err
			}
			if k > 0 {
				rates = append(rates, float64(len(src))/time.Since(t0).Seconds()/1e9)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(dst, src) {
		return nil, errors.New("loopback ceiling read corrupted data")
	}
	return rates, nil
}

// overLoopback runs server and client on the two ends of one loopback
// TCP connection and returns the first error. Closing either end fails
// the other's pending I/O, so it always waits for both to return.
func overLoopback(server, client func(net.Conn) error) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	s, err := l.Accept()
	if err != nil {
		c.Close()
		return err
	}
	errc := make(chan error, 1)
	go func() {
		defer s.Close()
		errc <- server(s)
	}()
	cerr := client(c)
	c.Close()
	if serr := <-errc; cerr == nil {
		return serr
	}
	return cerr
}

// session is tcp-session: the per-file path of a CDAT or esgcp user.
// Each operation resolves a logical file in the replica catalog (ldapd
// over a persistent loopback connection), opens a fresh GSI GridFTP
// session to the location returned, fetches the file, stores one on
// every 4th operation, and closes.
type session struct {
	*grid
	ld     *ldapd.Server
	ldLn   transport.Listener
	ldNet  *tcpNet
	ldCli  *ldapd.Client
	dir    *countingDir
	cat    *replica.Catalog
	names  []string // logical files, in catalog order
	choice []int    // per-operation index into names, seeded
	putSrc []byte
	port   int

	sink *gridftp.BytesSink
	rec  []sessionRec

	// counters at the start of the phase
	ldMark     connCounts
	searchMark int64
	dialMark   int
}

type sessionRec struct {
	name                   string
	locs                   []replica.Location
	lookup, dial, get, put time.Duration
	total                  time.Duration
}

func newSession(seed int64) (env, error) {
	g, err := startGrid()
	if err != nil {
		return nil, err
	}
	s := &session{grid: g, ldNet: &tcpNet{}}
	fail := func(err error) (env, error) {
		s.close()
		return nil, err
	}
	s.port = g.ln.Addr().(*net.TCPAddr).Port
	rng := rand.New(rand.NewPCG(uint64(seed), 2))
	for k := 0; k < catalogFiles; k++ {
		s.names = append(s.names, fmt.Sprintf("%s.tas.%04d.nc", collection, k))
	}
	stored := rng.Perm(catalogFiles)[:sessionWorkingSet]
	for j, k := range stored {
		g.store.Put(s.names[k], seeded(seed, uint64(10+j), sessionBytes))
	}
	for j := 0; j < 4096; j++ {
		s.choice = append(s.choice, stored[rng.IntN(len(stored))])
	}
	s.putSrc = seeded(seed, 3, sessionBytes)

	// The catalog is loaded on the server's own tree; lookups go over
	// the network.
	tree := ldapd.NewDir()
	loader, err := replica.New(tree)
	if err != nil {
		return fail(err)
	}
	if err := loader.CreateCollection(collection, s.names); err != nil {
		return fail(err)
	}
	if err := loader.AddLocation(collection, replica.Location{
		Host: "127.0.0.1", Protocol: "gsiftp", Port: s.port, Path: "/", Files: s.names,
	}); err != nil {
		return fail(err)
	}
	s.ld = ldapd.NewServer(tree, vtime.Real{})
	if s.ldLn, err = s.ldNet.Listen("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.ld.Serve(s.ldLn)
	}()
	if s.ldCli, err = ldapd.Dial(s.ldNet, s.ldLn.Addr().String()); err != nil {
		return fail(err)
	}
	s.dir = &countingDir{Directory: s.ldCli}
	if s.cat, err = replica.New(s.dir); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *session) phaseStart() {
	s.ldMark = s.ldNet.stats.snapshot()
	s.searchMark = s.dir.searches.Load()
	s.dialMark = s.net.stats.dialCount()
}

func (s *session) prepare(i int) error {
	s.sink = gridftp.NewBytesSink(sessionBytes)
	s.rec = append(s.rec, sessionRec{name: s.names[s.choice[i%len(s.choice)]]})
	return nil
}

func (s *session) run(i int, tr *tracer) error {
	s.net.tr.Store(tr)
	s.dir.tr.Store(tr)
	r := &s.rec[i]
	t0 := time.Now()
	err := tr.do("replica", "replica.LocationsFor", func() (err error) {
		r.locs, err = s.cat.LocationsFor(collection, r.name)
		return err
	})
	if err != nil {
		return fmt.Errorf("LocationsFor: %w", err)
	}
	if len(r.locs) == 0 {
		return errors.New("LocationsFor returned no location")
	}
	t1 := time.Now()
	var cli *gridftp.Client
	err = tr.do("gridftp", "gridftp.Dial", func() (err error) {
		cli, err = s.dial(net.JoinHostPort(r.locs[0].Host, strconv.Itoa(r.locs[0].Port)))
		return err
	})
	if err != nil {
		return fmt.Errorf("Dial: %w", err)
	}
	t2 := time.Now()
	err = tr.do("gridftp", "gridftp.Get", func() error {
		_, err := cli.Get(r.name, s.sink)
		return err
	})
	t3 := time.Now()
	if err == nil && i%4 == 3 {
		err = tr.do("gridftp", "gridftp.Put", func() error {
			_, err := cli.Put(putName(i), gridftp.NewBytesSource(s.putSrc))
			return err
		})
	}
	t4 := time.Now()
	cerr := tr.do("gridftp", "gridftp.Close", cli.Close)
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("Close: %w", cerr)
	}
	r.lookup, r.dial, r.get, r.put = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	r.total = time.Since(t0)
	return nil
}

func (s *session) verify(i int) error {
	r := s.rec[i]
	sink := s.sink
	s.sink = nil
	s.rec[i].locs = nil // each holds the collection's file list
	if len(r.locs) != 1 || r.locs[0].Host != "127.0.0.1" || r.locs[0].Port != s.port ||
		!slices.Contains(r.locs[0].Files, r.name) {
		return fmt.Errorf("LocationsFor(%s) returned %d locations, want the one registered", r.name, len(r.locs))
	}
	if err := sink.Complete(); err != nil {
		return err
	}
	want, _ := s.store.Get(r.name)
	if !bytes.Equal(sink.Bytes(), want) {
		return fmt.Errorf("RETR %s content differs from the stored file", r.name)
	}
	if i%4 == 3 {
		if got, ok := s.store.Get(putName(i)); !ok || !bytes.Equal(got, s.putSrc) {
			return fmt.Errorf("STOR %s content differs from its source", putName(i))
		}
	}
	return nil
}

func (s *session) headline(p *phase, add func(string, float64, string, int)) {
	ms := p.opsMs()
	add("session_p50_ms", quantile(ms, 0.5), "ms", len(ms))
	add("session_p90_ms", quantile(ms, 0.9), "ms", len(ms))
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, 0, len(ds))
	for _, d := range ds {
		out = append(out, float64(d)/1e6)
	}
	return out
}

func (s *session) layers(p *phase, m map[string]float64) error {
	hs, err := gsiHandshakes(s.user, s.server, 50)
	if err != nil {
		return fmt.Errorf("gsi handshake: %w", err)
	}
	var lookup, dial, get, put []time.Duration
	var total, sumLookup, sumDial time.Duration
	for _, i := range p.idx {
		r := s.rec[i]
		lookup, dial, get = append(lookup, r.lookup), append(dial, r.dial), append(get, r.get)
		if i%4 == 3 {
			put = append(put, r.put)
		}
		total += r.total
		sumLookup += r.lookup
		sumDial += r.dial
	}
	n := float64(p.loopOps)
	ld := s.ldNet.stats.snapshot().since(s.ldMark)
	m["replica.lookup_ms"] = quantile(durMs(lookup), 0.5)
	m["replica.lookup_share"] = sumLookup.Seconds() / total.Seconds()
	m["ldapd.bytes_per_lookup"] = float64(ld.bytes) / n
	m["ldapd.round_trips_per_lookup"] = float64(s.dir.searches.Load()-s.searchMark) / n
	m["gridftp.dial_ms"] = quantile(durMs(dial), 0.5)
	m["gridftp.dial_share"] = sumDial.Seconds() / total.Seconds()
	m["gsi.handshake_ms"] = quantile(hs, 0.5)
	m["transport.connect_ms"] = quantile(s.net.stats.dialMs(s.dialMark), 0.5)
	m["transport.conns_per_session"] = float64(s.net.stats.dialCount()-s.dialMark) / n
	m["gridftp.session_get_ms"] = quantile(durMs(get), 0.5)
	m["gridftp.session_put_ms"] = quantile(durMs(put), 0.5)
	m["session.p99_ms"] = quantile(p.opsMs(), 0.99)
	return nil
}

func (s *session) close() {
	if s.ldCli != nil {
		s.ldCli.Close()
	}
	if s.ld != nil {
		s.ld.Close()
	}
	if s.ldLn != nil {
		s.ldLn.Close()
	}
	s.grid.close()
}

// gsiHandshakes runs reps mutual GSI handshakes over one loopback TCP
// pair and returns each one's duration in ms, as the client saw it.
func gsiHandshakes(client, server *gsi.Config, reps int) ([]float64, error) {
	var ms []float64
	err := overLoopback(func(c net.Conn) error {
		for k := 0; k < reps; k++ {
			if _, err := server.Server(c); err != nil {
				return err
			}
		}
		return nil
	}, func(c net.Conn) error {
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			peer, err := client.Client(c)
			if err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			if peer.Subject != server.Identity.Credential.Subject {
				return fmt.Errorf("handshake authenticated %q", peer.Subject)
			}
		}
		return nil
	})
	return ms, err
}
