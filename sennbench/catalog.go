package main

import (
	"fmt"
	"regexp"
)

// metricDef describes one reported metric. Layer names the repository module
// the number is measured at; Moves and On name the end-to-end metric and the
// workload the metric is predicted to move (per-layer metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string
	On     string
}

// Workload names.
const (
	wlServeShare = "serve-share"
	wlSimLA30    = "sim-la30"
)

var workloads = []string{wlServeShare, wlSimLA30}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; the README defines each per workload family.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "req/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "server_fraction", Unit: "fraction", Better: "lower"},
}

// perLayer is reported by the traced run. A layer a workload does not
// exercise reports 0 there.
var perLayer = []metricDef{
	{"serve.cpu_us_per_req", "us", "lower", "internal/serve", "qps", wlServeShare},
	{"serve.read_syscalls_per_req", "count", "lower", "internal/serve", "qps", wlServeShare},
	{"serve.write_syscalls_per_req", "count", "lower", "internal/serve", "latency_p50_ms", wlServeShare},
	{"serve.ctx_switches_per_req", "count", "lower", "internal/serve", "latency_p50_ms", wlServeShare},
	{"serve.write_us_per_req", "us", "lower", "internal/serve", "latency_p50_ms", wlServeShare},
	{"serve.bytes_in_per_req", "bytes", "lower", "internal/serve", "latency_p50_ms", wlServeShare},
	{"serve.bytes_out_per_req", "bytes", "lower", "internal/serve", "latency_p50_ms", wlServeShare},

	{"relay.exchange_p50_ms", "ms", "lower", "internal/serve", "latency_p50_ms", wlServeShare},
	{"relay.exchange_p99_ms", "ms", "lower", "internal/serve", "latency_p99_ms", wlServeShare},
	{"relay.shares_per_req", "count", "higher", "internal/serve", "server_fraction", wlServeShare},
	{"relay.timeouts", "count", "lower", "internal/serve", "latency_p99_ms", wlServeShare},
	{"relay.unknown_replies", "count", "lower", "internal/serve", "latency_p99_ms", wlServeShare},

	{"dir.cells_scanned_per_req", "count", "lower", "internal/serve", "qps", wlServeShare},
	{"dir.candidates_rejected_per_req", "count", "lower", "internal/serve", "qps", wlServeShare},
	{"dir.patch_ops_per_position", "count", "lower", "internal/serve", "qps", wlServeShare},

	{"einn.pages_per_server_query", "count", "lower", "internal/nn", "qps", wlServeShare},
	{"einn.knn_us", "us", "lower", "internal/nn", "qps", wlServeShare},
	{"einn.range_us", "us", "lower", "internal/rtree", "qps", wlServeShare},

	{"pagestore.read_s", "s", "lower", "internal/pagestore", "setup_s", wlServeShare},
	{"rtree.build_s", "s", "lower", "internal/rtree", "setup_s", wlServeShare},

	{"wire.encode_ns_per_msg", "ns", "lower", "internal/wire", "qps", wlServeShare},
	{"wire.decode_ns_per_msg", "ns", "lower", "internal/wire", "qps", wlServeShare},

	{"client.peer_solved_fraction", "fraction", "higher", "internal/client", "server_fraction", wlServeShare},
	{"client.own_cache_fraction", "fraction", "higher", "internal/client", "server_fraction", wlServeShare},
	{"client.local_us_p50", "us", "lower", "internal/client", "latency_p50_ms", wlServeShare},
	{"client.server_rtt_us_p50", "us", "lower", "internal/client", "latency_p50_ms", wlServeShare},
	{"client.cpu_us_per_req", "us", "lower", "internal/client", "qps", wlServeShare},
	{"client.resolve_us", "us", "lower", "internal/client", "latency_p50_ms", wlSimLA30},
	{"client.replay_source_agreement", "fraction", "higher", "internal/client", "latency_p50_ms", wlSimLA30},

	{"sim.run_s", "s", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.speed", "sim-s/s", "higher", "internal/sim", "qps", wlSimLA30},
	{"sim.cpu_util", "fraction", "higher", "internal/sim", "qps", wlSimLA30},
	{"sim.allocs_per_query", "count", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.alloc_bytes_per_query", "bytes", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.gc_cpu_fraction", "fraction", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.single_fraction", "fraction", "higher", "internal/sim", "server_fraction", wlSimLA30},
	{"sim.multi_fraction", "fraction", "higher", "internal/sim", "server_fraction", wlSimLA30},
	{"sim.pages_per_server_query", "count", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.peer_msgs_per_query", "count", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.peer_bytes_per_query", "bytes", "lower", "internal/sim", "qps", wlSimLA30},
	{"sim.gather_reuse_ratio", "fraction", "higher", "internal/sim", "qps", wlSimLA30},
	{"sim.setup.roads_s", "s", "lower", "internal/spatialnet", "setup_s", wlSimLA30},
	{"mobility.advance_us_per_host_step", "us", "lower", "internal/mobility", "qps", wlSimLA30},

	{"trace.qps_overhead", "fraction", "lower", "sennbench", "qps", wlServeShare},
	{"trace.latency_p50_overhead", "fraction", "lower", "sennbench", "latency_p50_ms", wlServeShare},
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkCatalog validates names, units, directions and the per-layer map.
func checkCatalog() error {
	seen := map[string]bool{}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w] = true
	}
	check := func(m metricDef, layer bool) error {
		if !nameRule.MatchString(m.Name) {
			return fmt.Errorf("metric name %q breaks the name rule", m.Name)
		}
		if !unitRule.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
		if layer && (!e2e[m.Moves] || !wl[m.On] || m.Layer == "") {
			return fmt.Errorf("per-layer metric %s maps to %q on %q (layer %q)", m.Name, m.Moves, m.On, m.Layer)
		}
		return nil
	}
	for _, m := range endToEnd {
		if err := check(m, false); err != nil {
			return err
		}
	}
	for _, m := range perLayer {
		if err := check(m, true); err != nil {
			return err
		}
	}
	return nil
}
