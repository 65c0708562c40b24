package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/serve"
)

// serveParams is one serve workload's shape.
type serveParams struct {
	POIs     int     `json:"pois"`
	Clusters int     `json:"clusters"`
	Width    float64 `json:"width_m"`
	// Sessions is the number of closed-loop sessions (nproc).
	Sessions int `json:"sessions"`
	K        int `json:"k"`
	// RangeRadius is the radius of the range queries the traced run
	// replays at the served kNN positions (einn.range_us).
	RangeRadius float64 `json:"range_radius_m"`
	Share       bool    `json:"share"`
	TxRange     float64 `json:"tx_range_m"`
	MaxTxRange  float64 `json:"max_tx_range_m"`
	CSize       int     `json:"c_size"`
	// Square is the side of the square neighbourhood every session of one
	// load phase walks, centred on a POI the seed picks.
	Square float64 `json:"square_m"`
	Speed  float64 `json:"speed_mps"`
	Pause  float64 `json:"max_pause_s"`
}

// reqRec is one completed kNN request. Times are ns since the load epoch.
type reqRec struct {
	pos   geom.Point
	start int64
	dur   int64
	src   core.Source
	k     int32
	count int32 // answer length
	off   int32 // offset of the answer distances in sessionResult.dists
}

// sampleMsg is one request kept whole for the wire replay: its position
// and the cache entry the host holds (and shares) after it.
type sampleMsg struct {
	rec   reqRec
	entry core.PeerCache
}

const samplePerSession = 256

// sessionResult is everything one session observed.
type sessionResult struct {
	recs    []reqRec
	dists   []float64
	samples []sampleMsg
	moves   int64
	relays  int64 // relay exchanges seen by the relay observer
	stats   serve.ClientStats
	err     error
	trace   *tracer
}

// loadResult is one load phase: every session plus the window bounds.
type loadResult struct {
	sessions         []*sessionResult
	winStart, winEnd int64 // ns since epoch
	statsStart       serve.Stats
	statsWin0        serve.Stats
	statsWin1        serve.Stats
	statsEnd         serve.Stats
	cpuWin           float64 // this process's CPU seconds inside the window
}

// loadHooks lets the caller sample its own counters at the window edges.
type loadHooks struct {
	windowStart func()
	windowEnd   func()
}

// runLoad drives p.Sessions closed-loop SENN clients against addr for warm
// + dur, timing the final dur. With traced set every session records spans.
func runLoad(addr string, bounds geom.Rect, p serveParams, seed int64, warm, dur time.Duration, traced bool, hooks loadHooks) (*loadResult, error) {
	st0, err := fetchStats(addr)
	if err != nil {
		return nil, err
	}
	res := &loadResult{statsStart: st0, sessions: make([]*sessionResult, p.Sessions)}
	rng := mobility.SplitMix64(seed)
	epoch := time.Now()
	var stop atomic.Bool
	var ready, finished sync.WaitGroup
	startGate := make(chan struct{})
	for i := range res.sessions {
		sr := &sessionResult{}
		if traced {
			sr.trace = newTracer(epoch)
		}
		res.sessions[i] = sr
		start := geom.Pt(
			bounds.Min.X+rng.Float64()*(bounds.Max.X-bounds.Min.X),
			bounds.Min.Y+rng.Float64()*(bounds.Max.Y-bounds.Min.Y))
		wp := mobility.NewWaypoints(bounds, p.Speed, p.Pause, p.Square/2, 1)
		wp.Seed(0, start, rng.Uint64())
		ready.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			runSession(addr, p, wp, start, epoch, sr, &ready, startGate, &stop)
		}()
	}
	ready.Wait()
	for _, sr := range res.sessions {
		if sr.err != nil {
			close(startGate)
			stop.Store(true)
			finished.Wait()
			return nil, fmt.Errorf("session setup: %w", sr.err)
		}
	}
	close(startGate)
	time.Sleep(warm)

	if res.statsWin0, err = fetchStats(addr); err != nil {
		stop.Store(true)
		finished.Wait()
		return nil, err
	}
	if hooks.windowStart != nil {
		hooks.windowStart()
	}
	cpu0 := selfCPU()
	res.winStart = int64(time.Since(epoch))
	time.Sleep(dur)
	res.winEnd = int64(time.Since(epoch))
	res.cpuWin = selfCPU() - cpu0
	if hooks.windowEnd != nil {
		hooks.windowEnd()
	}
	res.statsWin1, err = fetchStats(addr)
	stop.Store(true)
	finished.Wait()
	if err != nil {
		return nil, err
	}
	if res.statsEnd, err = settledStats(addr); err != nil {
		return nil, err
	}
	return res, nil
}

// runSession is one mobile host: move, stream the position, resolve a kNN
// query, record it, repeat until stop. Each step is one virtual second of
// walking, as in senn-load.
func runSession(addr string, p serveParams, wp *mobility.Waypoints, pos geom.Point, epoch time.Time,
	sr *sessionResult, ready *sync.WaitGroup, gate <-chan struct{}, stop *atomic.Bool) {
	ws, err := dialSession(addr)
	if err != nil {
		sr.err = err
		ready.Done()
		return
	}
	defer ws.Close()
	cl := serve.NewSENNClient(ws, p.CSize, p.TxRange, p.Share)
	tr := sr.trace
	var curQuery int32 = -1
	var req int64
	cl.SetRelayObserver(func(d time.Duration) {
		sr.relays++
		tr.child("relay.exchange", curQuery, req, d)
	})
	ready.Done()
	<-gate

	for !stop.Load() {
		req++
		pos = wp.Advance(0, pos, 1)
		sp := tr.begin("client.Move", -1, req)
		err := cl.Move(pos)
		tr.end(sp, 0)
		if err != nil {
			sr.err = fmt.Errorf("move: %w", err)
			break
		}
		sr.moves++
		rec := reqRec{pos: pos, start: int64(time.Since(epoch))}
		curQuery = tr.begin("client.Query", -1, req)
		ans, src, err := cl.Query(p.K)
		rec.dur = int64(time.Since(epoch)) - rec.start
		tr.end(curQuery, int32(src))
		if err != nil {
			sr.err = fmt.Errorf("query: %w", err)
			break
		}
		rec.src, rec.k, rec.count = src, int32(p.K), int32(len(ans))
		rec.off = int32(len(sr.dists))
		for _, c := range ans {
			sr.dists = append(sr.dists, c.Dist)
		}
		sr.recs = append(sr.recs, rec)
		if len(sr.samples) < samplePerSession {
			ent, _ := cl.Cache().Entry()
			ent.Neighbors = append([]core.POI(nil), ent.Neighbors...)
			sr.samples = append(sr.samples, sampleMsg{rec: rec, entry: ent})
		}
	}
	sr.stats = cl.Stats()
}

// dialSession opens a session and its WebSocket.
func dialSession(addr string) (*serve.WSConn, error) {
	resp, err := http.Post("http://"+addr+"/v1/session", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("session: status %d", resp.StatusCode)
	}
	var doc struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return serve.DialWS("ws://" + addr + "/v1/ws?session=" + doc.Session)
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// windowLatencies returns the call latencies (ms) of requests that
// completed inside the timed window, sorted.
func (lr *loadResult) windowLatencies() []float64 {
	var lat []float64
	for _, sr := range lr.sessions {
		for _, r := range sr.recs {
			if end := r.start + r.dur; end >= lr.winStart && end < lr.winEnd {
				lat = append(lat, float64(r.dur)/1e6)
			}
		}
	}
	return sortedCopy(lat)
}

// windowSeconds is the timed window's length.
func (lr *loadResult) windowSeconds() float64 {
	return float64(lr.winEnd-lr.winStart) / 1e9
}

// totals sums the per-session counters over the whole phase.
type loadTotals struct {
	moves, exchanges int64
	client           serve.ClientStats
}

func (lr *loadResult) totals() loadTotals {
	var t loadTotals
	for _, sr := range lr.sessions {
		t.moves += sr.moves
		t.exchanges += sr.relays
		c := sr.stats
		t.client.Queries += c.Queries
		t.client.PeerSolved += c.PeerSolved
		t.client.OwnCacheSolved += c.OwnCacheSolved
		t.client.ServerSolved += c.ServerSolved
		t.client.SharesReceived += c.SharesReceived
		t.client.ProbesAnswered += c.ProbesAnswered
		t.client.PeerMsgs += c.PeerMsgs
		t.client.PeerBytes += c.PeerBytes
		t.client.Pages += c.Pages
	}
	return t
}
