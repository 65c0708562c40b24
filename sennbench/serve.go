package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveWorkload returns the parameters of serve-share.
func serveWorkload(sessions int) serveParams {
	return serveParams{
		POIs: 50000, Clusters: 16, Width: 20000,
		Sessions: sessions, K: 5, RangeRadius: 300, Share: true,
		TxRange: 1000, MaxTxRange: 1000, CSize: 16, Square: 600,
		Speed: 1.5, Pause: 5,
	}
}

// setupRepeats is how many times a sim run builds its world; serveParts is
// how many times a serve run boots the daemon. Each is a set-up sample.
const (
	setupRepeats = 3
	serveParts   = 4
)

// serveRun is the state one serve workload run builds up.
type serveRun struct {
	env    *runEnv
	p      serveParams
	seed   int64
	store  string
	info   serve.StoreInfo
	pois   []core.POI
	report *report
}

// runServe runs serve-share and fills rep.
func runServe(env *runEnv, name string, seed int64, seconds int, traced bool, rep *report) error {
	r := &serveRun{env: env, p: serveWorkload(env.nproc), seed: seed, report: rep}
	rep.params = r.p
	r.store = filepath.Join(env.work, fmt.Sprintf("%s-%d-%d.senp", name, seed, os.Getpid()))
	defer os.Remove(r.store)
	if err := makeStore(env.daemonBin, r.store, r.p, seed); err != nil {
		return err
	}
	var err error
	if r.info, r.pois, err = serve.ReadStore(r.store); err != nil {
		return err
	}
	win := time.Duration(seconds) * time.Second
	if traced {
		return r.traced(win)
	}
	return r.untraced(win)
}

// walkArea is where the sessions of load phase part move: a square
// neighbourhood centred on a POI chosen by the seed and part (clamped
// inside the service area).
func (r *serveRun) walkArea(part int) geom.Rect {
	b := r.info.Bounds
	rng := mobility.SplitMix64((r.seed ^ 0x5eed) + int64(part))
	c := r.pois[rng.Uint64()%uint64(len(r.pois))].Loc
	h := r.p.Square / 2
	x := math.Min(math.Max(c.X, b.Min.X+h), b.Max.X-h)
	y := math.Min(math.Max(c.Y, b.Min.Y+h), b.Max.Y-h)
	return geom.Rect{Min: geom.Pt(x-h, y-h), Max: geom.Pt(x+h, y+h)}
}

// untraced measures the end-to-end metrics. The daemon boots serveParts
// times; each boot is a set-up sample and is followed by one warm-up second,
// its share of the timed window and that part's correctness gate. Each part
// walks its own seed-picked square, so one run averages over several
// neighbourhoods. Spreading the window over the whole run samples more than
// one stretch of a shared host's speed, which changes for tens of seconds at
// a time.
func (r *serveRun) untraced(win time.Duration) error {
	mod := sim.NewServerModule(r.pois, r.info.Fanout)
	var setups, lat []float64
	var winSec, rssMB float64
	var server, queries int64
	for i := 0; i < serveParts; i++ {
		d, took, err := startDaemon(r.env.daemonBin, r.store, r.p.MaxTxRange)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		lr, err := runLoad(d.addr, r.walkArea(i), r.p, r.seed+int64(i), time.Second, win/serveParts, false, loadHooks{})
		if err != nil {
			err = r.daemonErr(d, err)
			d.stop()
			return err
		}
		ps, err := readProc(d.pid())
		if err != nil {
			err = r.daemonErr(d, err)
			d.stop()
			return err
		}
		d.stop()
		r.gate(mod, lr, fmt.Sprintf("window part %d", i+1))
		lat = append(lat, lr.windowLatencies()...)
		winSec += lr.windowSeconds()
		rssMB = math.Max(rssMB, float64(ps.HWMKiB)/1024)
		t := lr.totals()
		server += t.client.ServerSolved
		queries += t.client.Queries
	}
	lat = sortedCopy(lat)
	m := r.report.metrics
	m["qps"] = float64(len(lat)) / winSec
	m["latency_p50_ms"] = percentile(lat, 50)
	m["latency_p99_ms"] = percentile(lat, 99)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = rssMB
	m["server_fraction"] = ratio(float64(server), float64(queries))
	r.report.notef("%d requests in %.1fs of window; set-up runs %.3g s", len(lat), winSec, setups)
	return nil
}

// daemonErr adds the daemon's log to err when the daemon died on its own.
func (r *serveRun) daemonErr(d *daemon, err error) error {
	if d.exitedEarly() {
		return fmt.Errorf("%w; senn-serverd exited early, log:\n%s", err, d.log.String())
	}
	return err
}

// gate runs the correctness checks of one load phase and charges every
// violation to the report.
func (r *serveRun) gate(mod *sim.ServerModule, lr *loadResult, phase string) {
	bad, first := checkAnswers(mod, r.pois, lr)
	for _, sr := range lr.sessions {
		r.report.attempted += int64(len(sr.recs))
	}
	if bad > 0 {
		r.report.fail(bad, "%s: %d wrong answers, first: %s", phase, bad, first)
	}
	for _, sr := range lr.sessions {
		if sr.err != nil {
			r.report.fail(1, "%s: session error: %v", phase, sr.err)
		}
	}
	for _, v := range reconcile(lr.statsStart, lr.statsEnd, lr.totals()) {
		r.report.fail(1, "%s: %s", phase, v)
	}
}

func (lr *loadResult) allRecs() []reqRec {
	var out []reqRec
	for _, sr := range lr.sessions {
		out = append(out, sr.recs...)
	}
	return out
}

// bruteChecked is how many kNN answers per session and phase are also
// compared with brute force over the POI set, which shares no code with the
// daemon's EINN search.
const bruteChecked = 300

// checkAnswers compares every kNN answer's distances with the in-process
// module's kNN at the same position and k, and the first bruteChecked of
// each session also with brute-force kNN over pois. It returns the number of
// mismatches and a description of the first.
func checkAnswers(mod *sim.ServerModule, pois []core.POI, lr *loadResult) (bad int64, first string) {
	q := sim.NewSnapshotQuerier(mod)
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		if first == "" {
			first = s
		}
		mu.Unlock()
	}
	var nbad atomic.Int64
	var wg sync.WaitGroup
	for _, sr := range lr.sessions {
		wg.Add(1)
		go func(sr *sessionResult) {
			defer wg.Done()
			var dst []core.POI
			var brute []float64
			nknn := 0
			for _, rec := range sr.recs {
				dst, _ = q.KNN(rec.pos, int(rec.k), nn.Bounds{}, dst)
				got := sr.dists[rec.off : rec.off+rec.count]
				if !sameDists(rec.pos, dst, got) {
					nbad.Add(1)
					note(fmt.Sprintf("kNN at %v k=%d: served %v", rec.pos, rec.k, got))
					continue
				}
				if nknn++; nknn <= bruteChecked {
					if brute = bruteKNN(pois, rec.pos, int(rec.k), brute); !equalFloats(brute, got) {
						nbad.Add(1)
						note(fmt.Sprintf("kNN at %v k=%d: served %v, brute force %v", rec.pos, rec.k, got, brute))
					}
				}
			}
		}(sr)
	}
	wg.Wait()
	return nbad.Load(), first
}

// sameDists reports whether the served answer distances equal the reference
// POIs' distances from q, position by position.
func sameDists(q geom.Point, want []core.POI, got []float64) bool {
	if len(want) != len(got) {
		return false
	}
	for i, p := range want {
		if q.Dist(p.Loc) != got[i] {
			return false
		}
	}
	return true
}

// reconcile checks the daemon's counters against what the clients did over
// one phase. Each returned string is one broken identity.
func reconcile(before, after serve.Stats, t loadTotals) []string {
	var bad []string
	eq := func(name string, daemon, clients int64) {
		if daemon != clients {
			bad = append(bad, fmt.Sprintf("%s: daemon %d, clients %d", name, daemon, clients))
		}
	}
	eq("positions = Move calls", after.Positions-before.Positions, t.moves)
	eq("queries = server-solved kNN", after.Queries-before.Queries, t.client.ServerSolved)
	eq("server_queries = queries", after.ServerQueries-before.ServerQueries, after.Queries-before.Queries)
	eq("relay_requests = observed exchanges", after.RelayRequests-before.RelayRequests, t.exchanges)
	eq("protocol_errors", after.ProtoErrors-before.ProtoErrors, 0)
	eq("page_accesses = kNN pages", after.PageAccesses-before.PageAccesses, t.client.Pages)
	return bad
}

// traced runs one untraced window, one traced window on the same daemon,
// one window against an in-process server behind a counting listener, and
// the layer replays; it reports the per-layer metrics.
func (r *serveRun) traced(win time.Duration) error {
	m := r.report.metrics
	d, _, err := startDaemon(r.env.daemonBin, r.store, r.p.MaxTxRange)
	if err != nil {
		return err
	}
	defer d.stop()
	walk := r.walkArea(0)
	lu, err := runLoad(d.addr, walk, r.p, r.seed, time.Second, win, false, loadHooks{})
	if err != nil {
		return r.daemonErr(d, err)
	}
	var p0, p1 procSample
	var perr error
	hooks := loadHooks{
		windowStart: func() { p0, perr = readProc(d.pid()) },
		windowEnd: func() {
			if perr == nil {
				p1, perr = readProc(d.pid())
			}
		},
	}
	lt, err := runLoad(d.addr, walk, r.p, r.seed, time.Second, win, true, hooks)
	if err != nil {
		return r.daemonErr(d, err)
	}
	if perr != nil {
		return r.daemonErr(d, perr)
	}
	d.stop()

	// Boot replay: the two halves of the daemon's set-up.
	t0 := time.Now()
	info, pois, err := serve.ReadStore(r.store)
	if err != nil {
		return err
	}
	m["pagestore.read_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	mod := sim.NewServerModule(pois, info.Fanout)
	m["rtree.build_s"] = time.Since(t0).Seconds()

	li, cl, err := r.inProcessWindow(mod, walk, win/2)
	if err != nil {
		return err
	}
	r.gate(mod, lu, "untraced window")
	r.gate(mod, lt, "traced window")
	r.gate(mod, li, "in-process window")

	// Per-request daemon counters over the traced window.
	latU, latT := lu.windowLatencies(), lt.windowLatencies()
	nreq := float64(len(latT))
	dp := p1.sub(p0)
	m["serve.cpu_us_per_req"] = ratio(dp.CPUSeconds*1e6, nreq)
	m["serve.read_syscalls_per_req"] = ratio(float64(dp.ReadCalls), nreq)
	m["serve.write_syscalls_per_req"] = ratio(float64(dp.WriteCalls), nreq)
	m["serve.ctx_switches_per_req"] = ratio(float64(dp.CtxVol+dp.CtxInvol), nreq)
	ni := float64(len(li.windowLatencies()))
	m["serve.write_us_per_req"] = ratio(float64(cl.writeNs.Load())/1e3, ni)
	m["serve.bytes_in_per_req"] = ratio(float64(cl.bytesIn.Load()), ni)
	m["serve.bytes_out_per_req"] = ratio(float64(cl.bytesOut.Load()), ni)

	s0, s1 := lt.statsWin0, lt.statsWin1
	relayReqs := float64(s1.RelayRequests - s0.RelayRequests)
	m["relay.shares_per_req"] = ratio(float64(s1.RelaySharesFwd-s0.RelaySharesFwd), relayReqs)
	m["relay.timeouts"] = float64(lt.statsEnd.RelayTimeouts - lt.statsStart.RelayTimeouts)
	m["relay.unknown_replies"] = float64(lt.statsEnd.RelayUnknownReplies - lt.statsStart.RelayUnknownReplies)
	m["dir.cells_scanned_per_req"] = ratio(float64(s1.DirCellsScanned-s0.DirCellsScanned), relayReqs)
	m["dir.candidates_rejected_per_req"] = ratio(float64(s1.DirCandRejected-s0.DirCandRejected), relayReqs)
	m["dir.patch_ops_per_position"] = ratio(float64(s1.DirPatchOps-s0.DirPatchOps), float64(s1.Positions-s0.Positions))
	ls0, ls1 := lt.statsStart, lt.statsEnd
	m["einn.pages_per_server_query"] = ratio(float64(lt.totals().client.Pages), float64(ls1.ServerQueries-ls0.ServerQueries))

	r.traceMetrics(lt, nreq)
	m["trace.qps_overhead"] = ratio(float64(len(latU))/lu.windowSeconds()-nreq/lt.windowSeconds(), float64(len(latU))/lu.windowSeconds())
	m["trace.latency_p50_overhead"] = ratio(percentile(latT, 50)-percentile(latU, 50), percentile(latU, 50))

	replayEINN(m, mod, lt, r.p.RangeRadius)
	replayWire(m, lt, r.p)

	for _, sr := range lt.sessions {
		r.report.tracers = append(r.report.tracers, sr.trace)
	}
	return nil
}

// traceMetrics derives the client and relay numbers from the traced
// window's spans: self times of Query spans split by resolution source,
// relay exchange durations, and the client CPU per request.
func (r *serveRun) traceMetrics(lt *loadResult, nreq float64) {
	m := r.report.metrics
	var local, remote, relay []float64
	for _, sr := range lt.sessions {
		spans := sr.trace.spans
		self := selfTimes(spans)
		for i, s := range spans {
			if s.end < lt.winStart || s.end >= lt.winEnd {
				continue
			}
			switch s.name {
			case "client.Query":
				if core.Source(s.attr) == core.SolvedByServer {
					remote = append(remote, float64(self[i])/1e3)
				} else {
					local = append(local, float64(self[i])/1e3)
				}
			case "relay.exchange":
				relay = append(relay, float64(s.dur())/1e6)
			}
		}
	}
	relay = sortedCopy(relay)
	m["relay.exchange_p50_ms"] = percentile(relay, 50)
	m["relay.exchange_p99_ms"] = percentile(relay, 99)
	m["client.local_us_p50"] = percentile(sortedCopy(local), 50)
	m["client.server_rtt_us_p50"] = percentile(sortedCopy(remote), 50)
	t := lt.totals()
	m["client.peer_solved_fraction"] = ratio(float64(t.client.PeerSolved), float64(t.client.Queries))
	m["client.own_cache_fraction"] = ratio(float64(t.client.OwnCacheSolved), float64(t.client.Queries))
	m["client.cpu_us_per_req"] = ratio(lt.cpuWin*1e6, nreq)
}

// countingListener hands out connections that count bytes and time every
// Write, so the in-process server's transport cost can be read per request.
type countingListener struct {
	net.Listener
	writeNs, bytesIn, bytesOut atomic.Int64
	on                         atomic.Bool // count only inside the window
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.on.Load() {
		c.l.bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.l.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.l.writeNs.Add(int64(time.Since(t0)))
	c.l.bytesOut.Add(int64(n))
	return n, err
}

// inProcessWindow serves mod from this process behind a counting listener
// and drives the same load against it for win.
func (r *serveRun) inProcessWindow(mod *sim.ServerModule, walk geom.Rect, win time.Duration) (*loadResult, *countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cl := &countingListener{Listener: ln}
	srv := serve.NewServer(mod, serve.Options{Bounds: r.info.Bounds, MaxTxRange: r.p.MaxTxRange})
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(cl) }()
	defer func() {
		_ = hs.Close() // hijacked WebSockets are closed by their sessions
		<-served
	}()
	hooks := loadHooks{
		windowStart: func() { cl.on.Store(true) },
		windowEnd:   func() { cl.on.Store(false) },
	}
	lr, err := runLoad(ln.Addr().String(), walk, r.p, r.seed+2, time.Second/2, win, false, hooks)
	if err != nil {
		return nil, nil, err
	}
	return lr, cl, nil
}
