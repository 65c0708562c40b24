package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p, want float64
	}{
		{50, 5},    // ceil(0.5*10) = 5th
		{90, 9},    // ceil(9) = 9th
		{99, 10},   // ceil(9.9) = 10th
		{10, 1},    // ceil(1) = 1st
		{11, 2},    // ceil(1.1) = 2nd
		{100, 10},  // last
		{0.01, 1},  // rank clamps to 1
		{95.5, 10}, // ceil(9.55) = 10th
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	// 1000 samples: p99 is the 990th value, p999 the 999th.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(big, 99.9); got != 999 {
		t.Errorf("p99.9 of 1..1000 = %v, want 999", got)
	}
}

func TestWeightedPercentiles(t *testing.T) {
	// Equal weights: the same ranks as percentile, whatever the input order.
	xs := []float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}
	ones := make([]float64, len(xs))
	for i := range ones {
		ones[i] = 1
	}
	if got := weightedPercentiles(xs, ones, 50, 90, 99, 11); got[0] != 5 || got[1] != 9 || got[2] != 10 || got[3] != 2 {
		t.Errorf("equal weights: p50, p90, p99, p11 = %v, want [5 9 10 2]", got)
	}
	// Values 1..4 with weights 1, 1, 6, 2 (total 10): cumulative 1, 2, 8,
	// 10. p20 needs 2 (value 2), p21 and p80 reach 8 (value 3), p81 value 4.
	vs, ws := []float64{4, 1, 3, 2}, []float64{2, 1, 6, 1}
	if got := weightedPercentiles(vs, ws, 20, 21, 80, 81); got[0] != 2 || got[1] != 3 || got[2] != 3 || got[3] != 4 {
		t.Errorf("weighted p20, p21, p80, p81 = %v, want [2 3 3 4]", got)
	}
	if got := weightedPercentiles(nil, nil, 50); got[0] != 0 {
		t.Errorf("empty p50 = %v, want 0", got[0])
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields;
	// utime=250 and stime=50 ticks are fields 14 and 15.
	line := "4242 (senn serverd (x)) S 1 4242 4242 0 -1 4194560 1203 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("cpu = %v s, want 3.0", got)
	}
	if _, err := parseStatCPU("4242 senn S 1"); err == nil {
		t.Error("missing command field accepted")
	}
	if _, err := parseStatCPU("4242 (senn) S 1 2 3"); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestParseKV(t *testing.T) {
	io := "rchar: 1234\nwchar: 99\nsyscr: 5000\nsyscw: 2500\nread_bytes: 0\n"
	kv := parseKV(io)
	if kv["syscr"] != 5000 || kv["syscw"] != 2500 || kv["rchar"] != 1234 {
		t.Errorf("io: %v", kv)
	}
	status := "Name:\tsenn-serverd\nState:\tS (sleeping)\nVmHWM:\t   28672 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t150\nnonvoluntary_ctxt_switches:\t7\n"
	kv = parseKV(status)
	if kv["VmHWM"] != 28672 || kv["voluntary_ctxt_switches"] != 150 || kv["nonvoluntary_ctxt_switches"] != 7 {
		t.Errorf("status: %v", kv)
	}
	if _, ok := kv["Name"]; ok {
		t.Error("non-numeric line parsed")
	}
	d := procSample{CPUSeconds: 5, ReadCalls: 30, WriteCalls: 20, CtxVol: 9, CtxInvol: 4, HWMKiB: 100}.
		sub(procSample{CPUSeconds: 2, ReadCalls: 10, WriteCalls: 5, CtxVol: 1, CtxInvol: 1, HWMKiB: 50})
	if d != (procSample{CPUSeconds: 3, ReadCalls: 20, WriteCalls: 15, CtxVol: 8, CtxInvol: 3, HWMKiB: 100}) {
		t.Errorf("sub = %+v", d)
	}
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"qps", "latency_p50_ms", "serve.cpu_us_per_req", "sim.setup.roads_s", "9a-b"} {
		if !nameRule.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a:b", strings.Repeat("a", 65)} {
		if nameRule.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "req/s", "sim-s/s", "%", "MiB"} {
		if !unitRule.MatchString(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	if unitRule.MatchString("per request") {
		t.Error("unit with a space accepted")
	}
}

func TestCatalog(t *testing.T) {
	if err := checkCatalog(); err != nil {
		t.Fatal(err)
	}
	// Every per-layer metric names an end-to-end metric and a workload it
	// should move; every workload has at least one such metric.
	covered := map[string]bool{}
	for _, m := range perLayer {
		covered[m.On] = true
	}
	for _, w := range workloads {
		if !covered[w] {
			t.Errorf("no per-layer metric predicts a change on %s", w)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalog in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range doc.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, catalog %v", wl, workloads)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalog has %d", len(doc.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalog has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, c)
		}
	}
}

func TestReconcile(t *testing.T) {
	before := serve.Stats{Positions: 10, Queries: 4, ServerQueries: 4, PageAccesses: 100}
	after := serve.Stats{Positions: 110, Queries: 64, ServerQueries: 64,
		PageAccesses: 100 + 600, RelayRequests: 90}
	tot := loadTotals{moves: 100, exchanges: 90}
	tot.client.ServerSolved = 60
	tot.client.Pages = 600
	if bad := reconcile(before, after, tot); len(bad) != 0 {
		t.Fatalf("consistent stats flagged: %v", bad)
	}
	for name, mutate := range map[string]func(a *serve.Stats, t *loadTotals){
		"positions":       func(a *serve.Stats, t *loadTotals) { t.moves++ },
		"queries":         func(a *serve.Stats, t *loadTotals) { t.client.ServerSolved-- },
		"server_queries":  func(a *serve.Stats, t *loadTotals) { a.ServerQueries-- },
		"relay_requests":  func(a *serve.Stats, t *loadTotals) { t.exchanges-- },
		"protocol_errors": func(a *serve.Stats, t *loadTotals) { a.ProtoErrors++ },
		"page_accesses":   func(a *serve.Stats, t *loadTotals) { t.client.Pages += 10 },
	} {
		a, tt := after, tot
		mutate(&a, &tt)
		bad := reconcile(before, a, tt)
		if len(bad) != 1 || !strings.HasPrefix(bad[0], name) {
			t.Errorf("%s: violations %v", name, bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "client.Query", start: 0, end: 100, parent: -1},
		{name: "relay.exchange", start: 10, end: 40, parent: 0},
		{name: "client.Move", start: 100, end: 105, parent: -1},
		{name: "x", start: 50, end: 60, parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{60, 30, 5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x", -1, 0); i != -1 {
		t.Error("nil tracer recorded a span")
	}
	nilTracer.end(-1, 0)
	nilTracer.child("x", -1, 0, 5)
}

func TestBruteKNNAndSameDists(t *testing.T) {
	var pois []core.POI
	for i := 0; i < 200; i++ {
		pois = append(pois, core.POI{ID: int64(i), Loc: geom.Pt(float64(i%20)*7.5, float64(i/20)*3.25)})
	}
	q := geom.Pt(33.3, 12.1)
	all := make([]float64, len(pois))
	for i, p := range pois {
		all[i] = q.Dist(p.Loc)
	}
	sort.Float64s(all)
	for _, k := range []int{1, 5, 7, 200} {
		got := bruteKNN(pois, q, k, nil)
		if !equalFloats(got, all[:k]) {
			t.Errorf("k=%d: %v, want %v", k, got, all[:k])
		}
	}
	ref := []core.POI{pois[3], pois[4]}
	d := []float64{q.Dist(pois[3].Loc), q.Dist(pois[4].Loc)}
	if !sameDists(q, ref, d) || sameDists(q, ref, d[:1]) || sameDists(q, ref, []float64{d[0], d[0]}) {
		t.Error("sameDists")
	}
}
