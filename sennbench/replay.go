package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/spatialnet"
	"repro/internal/wire"
)

// Layer replays: the benchmark calls one layer's public function on the
// workload's own data and times it, in one goroutine, with nothing else
// running.

// gridPeers is a client.PeerSource over a fixed set of peer caches indexed
// by their query locations, with the simulator's air-interface accounting.
type gridPeers struct {
	grid   *sim.PointGrid
	caches []core.PeerCache
	tx     float64
	dst    []core.PeerCache
	msgs   int64
	bytes  int64
	visit  func(i int32)
}

func newGridPeers(caches []core.PeerCache, bounds geom.Rect, tx float64) *gridPeers {
	pts := make([]geom.Point, len(caches))
	for i, c := range caches {
		pts[i] = c.QueryLoc
	}
	g := &gridPeers{grid: sim.NewPointGrid(pts, bounds, tx), caches: caches, tx: tx}
	g.visit = func(i int32) {
		c := g.caches[i]
		g.dst = append(g.dst, c)
		g.msgs++
		g.bytes += int64(wire.CacheShareSize(len(c.Neighbors)))
	}
	return g
}

func (g *gridPeers) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	g.dst, g.msgs, g.bytes = dst, 1, int64(wire.CacheRequestSize)
	g.grid.ForEachWithin(q, g.tx, g.visit)
	return g.dst, g.msgs, g.bytes
}

// moduleServer is a client.Server over an in-process ServerModule.
type moduleServer struct {
	mod *sim.ServerModule
	it  nn.TreeIterator
}

func (s *moduleServer) KNNInto(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64, error) {
	out, pages := s.mod.KNNInto(q, k, b, &s.it, dst)
	return out, pages, nil
}

// streamReplay re-resolves the simulator's own query stream. Installed as a
// World's audit callback, it sees every query the world executes, in event
// order, at the querying host's step-start position and with the world's k.
// It replays each query through client.Resolver.Resolve against a snapshot
// of every host's cache, retaken every refresh queries (about one simulated
// step), and times the call. The world runs no other work while its audit
// callback runs. Host positions and the querying host's own cache are not
// visible from outside the world, so the replay gathers the caches whose
// query location lies within Tx, and the replayed host has no own cache
// (its entry is a peer when it lies within Tx, as a parked host's does).
// The replay's sources are kept beside the world's so the two can be
// compared.
type streamReplay struct {
	w       *sim.World
	refresh int
	skip    int
	seen    int
	peers   *gridPeers
	srv     *moduleServer
	res     *client.Resolver
	own     *cache.Cache
	tr      *tracer // spans every other replayed call when set
	lat     []float64
	traced  []bool
	src     [2][]core.Source // the world's and the replay's source per call
}

func newStreamReplay(w *sim.World, tr *tracer) *streamReplay {
	cfg := w.Config()
	perStep := cfg.QueriesPerMinute / 60 * cfg.StepSeconds
	return &streamReplay{
		w:       w,
		refresh: int(math.Max(1, perStep)),
		// The warm-up's queries are not replayed: 90% of their expected
		// number is skipped, and the tail matching the run's TotalQueries
		// is what counts.
		skip: int(0.9 * perStep * cfg.Duration * cfg.WarmupFraction / cfg.StepSeconds),
		srv:  &moduleServer{mod: w.Server()},
		res:  client.NewResolver(),
		own:  cache.New(cfg.CacheSize), // empty: sizes the policy-2 top-up only
		tr:   tr,
	}
}

// audit is the World.SetAudit callback.
func (r *streamReplay) audit(q geom.Point, k int, _ []core.Candidate, src core.Source) {
	r.seen++
	if r.seen <= r.skip {
		return
	}
	if len(r.lat)%r.refresh == 0 {
		cfg := r.w.Config()
		r.peers = newGridPeers(r.w.PeerCachesSnapshot(), cfg.Bounds(), cfg.TxRange)
	}
	var sp int32 = -1
	traced := r.tr != nil && r.seen%2 == 0
	if traced {
		sp = r.tr.begin("client.Resolve", -1, int64(r.seen))
	}
	t0 := time.Now()
	r.res.ResetArena()
	out := r.res.Resolve(client.Request{Q: q, K: k, Cache: r.own}, r.peers, r.srv)
	r.lat = append(r.lat, float64(time.Since(t0))/1e3)
	if traced {
		r.tr.end(sp, int32(out.Src))
	}
	r.traced = append(r.traced, traced)
	r.src[0] = append(r.src[0], src)
	r.src[1] = append(r.src[1], out.Src)
}

// finish drops every replayed call before the last n, the run's measured
// (post-warm-up) queries, and lets go of the world.
func (r *streamReplay) finish(n int64) {
	r.w, r.peers, r.srv = nil, nil, nil
	if d := len(r.lat) - int(n); d > 0 {
		r.lat, r.traced = r.lat[d:], r.traced[d:]
		r.src[0], r.src[1] = r.src[0][d:], r.src[1][d:]
	}
}

// latency returns the p50 and p99 in µs of the kept calls (the traced ones
// or the untraced ones). Each call is weighted so that the replay's
// resolution sources occur in the run's proportions: the replay picks peers
// by their caches' query locations, the run by the hosts' current positions,
// which are not visible from outside the world, so the two source mixes
// differ by a few percent of the calls.
func (r *streamReplay) latency(traced bool) (p50, p99 float64) {
	var runN, replayN [core.SolvedByServer + 1]float64
	var xs []float64
	var cls []core.Source
	for i, t := range r.lat {
		if r.traced[i] != traced {
			continue
		}
		runN[r.src[0][i]]++
		replayN[r.src[1][i]]++
		xs = append(xs, t)
		cls = append(cls, r.src[1][i])
	}
	ws := make([]float64, len(xs))
	for i, c := range cls {
		ws[i] = runN[c] / replayN[c]
	}
	ps := weightedPercentiles(xs, ws, 50, 99)
	return ps[0], ps[1]
}

// fidelity compares the replay with the run over the kept calls: the share
// of calls that resolved from the same source, and each side's server
// fraction.
func (r *streamReplay) fidelity() (agree, serverRun, serverReplay float64) {
	var same, sr, sp int
	for i, s := range r.src[0] {
		if s == r.src[1][i] {
			same++
		}
		if s == core.SolvedByServer {
			sr++
		}
		if r.src[1][i] == core.SolvedByServer {
			sp++
		}
	}
	n := float64(len(r.src[0]))
	return ratio(float64(same), n), ratio(float64(sr), n), ratio(float64(sp), n)
}

// replaySimLayers times the road-network build, the R*-tree build and road
// movement on the world's configuration.
func replaySimLayers(m map[string]float64, w *sim.World, tr *tracer) {
	cfg := w.Config()
	sp := tr.begin("spatialnet.GenerateGrid+BuildNodeIndex", -1, 0)
	t0 := time.Now()
	g, err := spatialnet.GenerateGrid(spatialnet.GridConfig{
		Width: cfg.AreaWidth, Height: cfg.AreaHeight, Spacing: cfg.RoadSpacing,
		SecondaryEvery: 5, HighwayEvery: 20,
	})
	if err == nil {
		g.BuildNodeIndex()
		m["sim.setup.roads_s"] = time.Since(t0).Seconds()
	}
	tr.end(sp, 0)

	sp = tr.begin("sim.NewServerModule", -1, 0)
	t0 = time.Now()
	sim.NewServerModule(w.Server().POIs(), cfg.RTreeFanout)
	m["rtree.build_s"] = time.Since(t0).Seconds()
	tr.end(sp, 0)

	// Road movement: 1,000 hosts on the world's network, 600 one-second
	// steps each (long enough for several trips, so route planning on
	// arrival is in the mix), sharing one route planner as the world loop
	// does.
	const hosts, steps = 1000, 600
	roads := w.Roads()
	rng := rand.New(rand.NewSource(cfg.Seed))
	finder := spatialnet.NewPathFinder(roads)
	movers := make([]*mobility.RoadNetwork, hosts)
	for i := range movers {
		node, _ := roads.NearestNodeIndexed(geom.Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight))
		movers[i] = mobility.NewRoadNetworkWith(roads, node, cfg.Velocity, cfg.MaxPause,
			rand.New(rand.NewSource(rng.Int63())),
			mobility.RoadNetworkOptions{Finder: finder, TripRadius: cfg.TripRadius})
	}
	sp = tr.begin("mobility.RoadNetwork.Advance", -1, 0)
	t0 = time.Now()
	for s := 0; s < steps; s++ {
		for _, mv := range movers {
			mv.Advance(cfg.StepSeconds)
		}
	}
	m["mobility.advance_us_per_host_step"] = float64(time.Since(t0)) / 1e3 / (hosts * steps)
	tr.end(sp, 0)
}

// replayEINN replays the traced window's kNN (position, k) stream through
// SnapshotQuerier, up to 20,000 calls, and a range query of the given radius
// at the first 2,000 of those positions; it reports the mean time per call.
func replayEINN(m map[string]float64, mod *sim.ServerModule, lr *loadResult, radius float64) {
	q := sim.NewSnapshotQuerier(mod)
	knn := lr.allRecs()
	if len(knn) > 20000 {
		knn = knn[:20000]
	}
	rng := knn
	if len(rng) > 2000 {
		rng = rng[:2000]
	}
	var dst []core.POI
	t0 := time.Now()
	for _, rec := range knn {
		dst, _ = q.KNN(rec.pos, int(rec.k), nn.Bounds{}, dst)
	}
	m["einn.knn_us"] = ratio(float64(time.Since(t0))/1e3, float64(len(knn)))
	t0 = time.Now()
	for _, rec := range rng {
		q.Range(rec.pos, radius)
	}
	m["einn.range_us"] = ratio(float64(time.Since(t0))/1e3, float64(len(rng)))
}

// replayWire encodes and decodes the message mix the sampled requests put
// on the wire: a Position per request; per request with sharing on a
// PeerRequest, a PeerProbe, a ShareReply and a PeerShares (one share per
// other session); per server-solved request a Query and an Answer. Each
// message is encoded with the function its sender uses and decoded with the
// one its receiver uses.
func replayWire(m map[string]float64, lr *loadResult, p serveParams) {
	var samples []sampleMsg
	var entries []core.PeerCache
	for _, sr := range lr.sessions {
		samples = append(samples, sr.samples...)
		for _, s := range sr.samples {
			if len(s.entry.Neighbors) > 0 {
				entries = append(entries, s.entry)
			}
		}
	}
	type encoder func(dst []byte) []byte
	var encoders []encoder
	for i, s := range samples {
		id, rec, entry := uint32(i), s.rec, s.entry
		encoders = append(encoders, func(dst []byte) []byte { return wire.AppendPosition(dst, rec.pos) })
		if p.Share && len(entries) > 0 {
			var shares []core.PeerCache
			for j := 1; j < p.Sessions; j++ {
				shares = append(shares, entries[(i+j)%len(entries)])
			}
			pr := wire.PeerRequest{ReqID: id, Loc: rec.pos, Radius: p.TxRange}
			ps := wire.PeerShares{ReqID: id, PeersInRange: len(shares), Shares: shares}
			encoders = append(encoders,
				func(dst []byte) []byte { return wire.AppendPeerRequest(dst, pr) },
				func(dst []byte) []byte { return wire.AppendPeerProbe(dst, id) },
				func(dst []byte) []byte { return wire.AppendShareReply(dst, id, true, entry) },
				func(dst []byte) []byte { return wire.AppendPeerShares(dst, ps) })
		}
		if rec.src == core.SolvedByServer {
			qm := wire.Query{ReqID: id, K: p.CSize, Loc: rec.pos}
			ans := wire.Answer{ReqID: id, Cache: entry}
			encoders = append(encoders,
				func(dst []byte) []byte { return wire.AppendQuery(dst, qm) },
				func(dst []byte) []byte { return wire.AppendAnswer(dst, ans) })
		}
	}
	if len(encoders) == 0 {
		return
	}
	msgs := make([][]byte, len(encoders))
	for i, e := range encoders {
		msgs[i] = e(nil)
	}

	// Enough rounds for about a million messages each way.
	rounds := 1 + 1000000/len(encoders)
	buf := make([]byte, 0, 1<<16)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range encoders {
			buf = e(buf[:0])
		}
	}
	m["wire.encode_ns_per_msg"] = float64(time.Since(t0)) / float64(rounds*len(encoders))

	var sc wire.SharesScratch
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range msgs {
			// The bytes were just produced by the encoders, so decoding
			// cannot fail; only its cost is of interest here.
			if typ, _ := wire.PeekType(b); typ == wire.TypePeerShares {
				_, _ = wire.DecodePeerSharesInto(b, &sc)
			} else {
				_, _ = wire.Decode(b)
			}
		}
	}
	m["wire.decode_ns_per_msg"] = float64(time.Since(t0)) / float64(rounds*len(msgs))
}
