package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of an untraced run. Every workload
// reports all of them; what an "operation" is depends on the workload
// (README.md).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Each comes from the workload
// that exercises its layer: from the selected workload's traced half when
// that is the one, else from that workload's short traced pass. The
// runtime.* group comes from the selected workload.
var perLayer = []metricDef{
	// tcp-bulk
	{"gridftp.get_ms", "ms"},
	{"gridftp.put_ms", "ms"},
	{"transport.ceiling_gbps", "GB/s"},
	{"gridftp.get_of_ceiling", "ratio"},
	{"gridftp.put_of_ceiling", "ratio"},
	{"transport.reads_per_mb", "1/MB"},
	{"transport.writes_per_mb", "1/MB"},
	{"runtime.alloc_mb_per_gb", "MB/GB"},
	// tcp-session
	{"replica.lookup_ms", "ms"},
	{"replica.lookup_share", "ratio"},
	{"ldapd.bytes_per_lookup", "B"},
	{"ldapd.round_trips_per_lookup", "count"},
	{"gridftp.dial_ms", "ms"},
	{"gridftp.dial_share", "ratio"},
	{"gsi.handshake_ms", "ms"},
	{"transport.connect_ms", "ms"},
	{"transport.conns_per_session", "count"},
	{"gridftp.session_get_ms", "ms"},
	{"gridftp.session_put_ms", "ms"},
	{"session.p99_ms", "ms"},
	// sim-s11
	{"vtime.events_fired", "count"},
	{"vtime.events_per_wall_s", "1/s"},
	{"vtime.heap_max", "count"},
	{"vtime.wall_ns.simnet.deliver", "ns"},
	{"vtime.wall_ns.simnet.completion", "ns"},
	{"vtime.wall_ns.simnet.growth", "ns"},
	{"vtime.wall_ns.simnet.linger", "ns"},
	{"simnet.alloc_passes", "count"},
	{"simnet.flows_per_pass", "count"},
	{"simnet.csr_hit_ratio", "ratio"},
	// sim-figure8
	{"vtime.core_records", "count"},
	{"gridftp.transfers", "count"},
	{"gridftp.restarts", "count"},
	// selected workload
	{"runtime.mutex_wait_s", "s"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// checkSpec holds BENCHMARK.json and this program to the same metric
// names, units and workloads.
func checkSpec() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(got), what, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %s (%s), the program reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %s, the program's is %s", i, w.Name, workloads[i].name)
		}
	}
	return nil
}
