package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
)

const (
	mile = 1609.344
	mph  = 0.44704
)

// simConfig is Table 4's Los Angeles region in road-network mode with the
// query rate raised tenfold. The simulated duration is 20 s per benchmark
// second, so a 25 s run simulates 500 s per World.Run.
func simConfig(seed int64, seconds, workers int) sim.Config {
	return sim.Config{
		AreaWidth:        30 * mile,
		AreaHeight:       30 * mile,
		NumPOIs:          4050,
		NumHosts:         121500,
		CacheSize:        20,
		MovePercentage:   0.80,
		Velocity:         30 * mph,
		QueriesPerMinute: 81000,
		TxRange:          200,
		KMin:             3,
		KMax:             7,
		Duration:         20 * float64(seconds),
		Mode:             sim.ModeRoadNetwork,
		MaxPause:         30,
		RTreeFanout:      30,
		Workers:          workers,
		QueryWorkers:     workers,
		Seed:             seed,
	}
}

// newWorld builds a world after a full collection, so each set-up starts
// from the same heap state, and returns it with its build time.
func newWorld(cfg sim.Config) (*sim.World, float64, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := sim.New(cfg)
	return w, time.Since(t0).Seconds(), err
}

// replayRun runs w with a streamReplay (and, when audits is set, an answer
// recorder) as its audit callback. The run's wall time is not used: the
// callback's work is part of it.
func replayRun(w *sim.World, tr *tracer, audits *[]auditRec) (sim.Metrics, *streamReplay) {
	sr := newStreamReplay(w, tr)
	w.SetAudit(func(q geom.Point, k int, answer []core.Candidate, src core.Source) {
		if audits != nil {
			d := make([]float64, len(answer))
			for i, c := range answer {
				d[i] = c.Dist
			}
			*audits = append(*audits, auditRec{q: q, k: k, dists: d})
		}
		sr.audit(q, k, answer, src)
	})
	mr := w.Run()
	sr.finish(mr.TotalQueries)
	return mr, sr
}

// runSim runs sim-la30 and fills rep.
func runSim(env *runEnv, seed int64, seconds int, traced bool, rep *report) error {
	cfg := simConfig(seed, seconds, env.nproc)
	rep.params = cfg
	if traced {
		return simTraced(cfg, rep)
	}
	m := rep.metrics
	// Three identical worlds run in turn, and each build is a set-up
	// sample. The first and the last run are timed. The middle one replays
	// its own query stream through the client core for the latency figures
	// (its wall time includes the replay and is not used). The same seed
	// must give the same metrics on all three.
	var runs []sim.Metrics
	var setups []float64
	var wall float64
	var queries int64
	var sr *streamReplay
	for i := 0; i < setupRepeats; i++ {
		w, took, err := newWorld(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, took)
		var mr sim.Metrics
		if i == 1 {
			mr, sr = replayRun(w, nil, nil)
		} else {
			t0 := time.Now()
			mr = w.Run()
			wall += time.Since(t0).Seconds()
			queries += mr.TotalQueries
		}
		runs = append(runs, mr)
	}
	p50, p99 := sr.latency(false)

	ma := runs[0]
	rep.attempted = ma.TotalQueries
	checkSimMetrics(rep, "run", ma)
	for _, mb := range runs[1:] {
		if mb != ma {
			rep.fail(1, "metrics differ across runs of seed %d:\n  %v\n  %v", seed, ma, mb)
		}
	}
	ps, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	m["qps"] = float64(queries) / wall
	m["latency_p50_ms"] = p50 / 1e3
	m["latency_p99_ms"] = p99 / 1e3
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = float64(ps.HWMKiB) / 1024
	m["server_fraction"] = ratio(float64(ma.SolvedByServer), float64(ma.TotalQueries))
	agree, sRun, sReplay := sr.fidelity()
	rep.notef("World.Run %.2fs for 2 x %.0f simulated s; %s; set-up runs %.3g s", wall, cfg.Duration, ma, setups)
	rep.notef("replay of %d measured queries: source as in the run for %.1f%%; server fraction %.4f (run %.4f)",
		len(sr.lat), 100*agree, sReplay, sRun)
	return nil
}

// checkSimMetrics charges a broken resolution identity to the report.
func checkSimMetrics(rep *report, phase string, m sim.Metrics) {
	if sum := m.SolvedBySingle + m.SolvedByMulti + m.SolvedUncertain + m.SolvedByServer; sum != m.TotalQueries || m.TotalQueries == 0 {
		rep.fail(1, "%s: single+multi+uncertain+server = %d, TotalQueries = %d", phase, sum, m.TotalQueries)
	}
}

// auditRec is one query's answer as the audit callback saw it.
type auditRec struct {
	q     geom.Point
	k     int
	dists []float64
}

// runtimeGCCPU reads the runtime's GC and total CPU-seconds estimates.
func runtimeGCCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// simTraced runs three identical worlds: one untraced (the overhead
// baseline and the allocation, GC and CPU counters), one with spans around
// sim.New and World.Run followed by the layer replays, and one whose audit
// callback replays its query stream, half of the calls as spans, and records
// every answer for the brute-force check.
func simTraced(cfg sim.Config, rep *report) error {
	m := rep.metrics
	wu, _, err := newWorld(cfg)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := runtimeGCCPU()
	cpu0 := selfCPU()
	t0 := time.Now()
	mu := wu.Run()
	wallU := time.Since(t0).Seconds()
	cpuU := selfCPU() - cpu0
	gc1, tot1 := runtimeGCCPU()
	runtime.ReadMemStats(&ms1)
	wu = nil

	tr := newTracer(time.Now())
	runtime.GC()
	sp := tr.begin("sim.New", -1, 0)
	w, err := sim.New(cfg)
	tr.end(sp, 0)
	if err != nil {
		return err
	}
	sp = tr.begin("sim.World.Run", -1, 0)
	mt := w.Run()
	tr.end(sp, 0)
	runS := float64(tr.spans[sp].dur()) / 1e9
	hits, fills := w.GatherReuse()
	replaySimLayers(m, w, tr)
	w = nil

	wa, _, err := newWorld(cfg)
	if err != nil {
		return err
	}
	var audits []auditRec
	ma, sr := replayRun(wa, tr, &audits)
	pois := wa.Server().POIs()
	wa = nil

	rep.attempted = int64(len(audits))
	checkSimMetrics(rep, "untraced run", mu)
	checkSimMetrics(rep, "traced run", mt)
	checkSimMetrics(rep, "audited run", ma)
	if mu != mt || mu != ma {
		rep.fail(1, "metrics differ between the untraced, traced and audited runs:\n  %v\n  %v\n  %v", mu, mt, ma)
	}
	if bad, first := checkAudits(pois, audits); bad > 0 {
		rep.fail(bad, "%d audited answers differ from brute-force kNN, first: %s", bad, first)
	}

	executed := float64(len(audits))
	tq := float64(mt.TotalQueries)
	m["sim.run_s"] = runS
	m["sim.speed"] = cfg.Duration / runS
	m["sim.cpu_util"] = cpuU / (wallU * float64(runtime.GOMAXPROCS(0)))
	m["sim.allocs_per_query"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), executed)
	m["sim.alloc_bytes_per_query"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), executed)
	m["sim.gc_cpu_fraction"] = ratio(gc1-gc0, tot1-tot0)
	m["sim.single_fraction"] = ratio(float64(mt.SolvedBySingle), tq)
	m["sim.multi_fraction"] = ratio(float64(mt.SolvedByMulti), tq)
	m["sim.pages_per_server_query"] = mt.PagesPerServerQuery()
	m["sim.peer_msgs_per_query"] = ratio(float64(mt.PeerMessages), tq)
	m["sim.peer_bytes_per_query"] = mt.PeerBytesPerQuery()
	m["sim.gather_reuse_ratio"] = ratio(float64(hits), float64(hits+fills))
	// Same query count on both runs, so the qps ratio is the wall ratio.
	m["trace.qps_overhead"] = ratio(runS-wallU, runS)

	p50T, _ := sr.latency(true)
	p50U, _ := sr.latency(false)
	m["client.resolve_us"] = p50T
	m["trace.latency_p50_overhead"] = ratio(p50T-p50U, p50U)
	agree, sRun, sReplay := sr.fidelity()
	m["client.replay_source_agreement"] = agree
	rep.notef("World.Run untraced %.2fs, traced %.2fs; %d queries audited; %s", wallU, runS, len(audits), mt)
	rep.notef("replay of %d measured queries: source as in the run for %.1f%%; server fraction %.4f (run %.4f)",
		len(sr.lat), 100*agree, sReplay, sRun)
	rep.tracers = []*tracer{tr}
	return nil
}

// checkAudits compares every audited answer with brute-force kNN over the
// POI set, in parallel. It returns the number of mismatches and the first.
func checkAudits(pois []core.POI, audits []auditRec) (int64, string) {
	workers := runtime.GOMAXPROCS(0)
	bad := make([]int64, workers)
	firsts := make([]string, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var best []float64
			for i := wi; i < len(audits); i += workers {
				a := audits[i]
				best = bruteKNN(pois, a.q, a.k, best)
				if !equalFloats(best, a.dists) {
					bad[wi]++
					if firsts[wi] == "" {
						firsts[wi] = fmt.Sprintf("q=%v k=%d: answer %v, brute force %v", a.q, a.k, a.dists, best)
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	var n int64
	first := ""
	for wi := range bad {
		n += bad[wi]
		if first == "" {
			first = firsts[wi]
		}
	}
	return n, first
}

// bruteKNN returns the k smallest distances from q to the POIs, ascending,
// into dst. Candidates are selected by squared distance with two spares, so
// rounding in the final math.Hypot distances cannot change the result.
func bruteKNN(pois []core.POI, q geom.Point, k int, dst []float64) []float64 {
	keep := k + 2
	type cand struct {
		d2  float64
		loc geom.Point
	}
	top := make([]cand, 0, keep+1)
	for _, p := range pois {
		d2 := q.Dist2(p.Loc)
		if len(top) == keep && d2 >= top[keep-1].d2 {
			continue
		}
		j := len(top)
		top = append(top, cand{})
		for j > 0 && top[j-1].d2 > d2 {
			top[j] = top[j-1]
			j--
		}
		top[j] = cand{d2, p.Loc}
		if len(top) > keep {
			top = top[:keep]
		}
	}
	dst = dst[:0]
	for _, c := range top {
		dst = append(dst, q.Dist(c.loc))
	}
	sort.Float64s(dst)
	if len(dst) > k {
		dst = dst[:k]
	}
	return dst
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
