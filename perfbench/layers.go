package main

import "sort"

// layerUnits lists every per-layer metric of a traced run with its
// unit; BENCHMARK.json lists the same names. A metric of a layer that a
// workload bypasses reads 0 on that workload. METRICS.md maps each one
// to the end-to-end metric and workload it should move.
var layerUnits = map[string]string{
	"proxy.self_us_p50":                         "us",
	"proxy.self_us_p99":                         "us",
	"proxy.filter_answer_frac":                  "fraction",
	"proxy.cache_hit_frac":                      "fraction",
	"proxy.upstream_ids_per_page":               "count",
	"proxy.refresh_filters_us_p50":              "us",
	"proxy.refresh_filters_us_p99":              "us",
	"wire.status_batch_us_p50":                  "us",
	"wire.status_batch_us_p99":                  "us",
	"wire.self_us_p50":                          "us",
	"wire.ids_per_rpc":                          "count",
	"wire.rx_bytes_per_id":                      "bytes",
	"wire.owner_self_us_p50":                    "us",
	"ledger.status_batch_us_per_id":             "us",
	"ledger.status_us_memtable_p50":             "us",
	"ledger.status_us_segment_p50":              "us",
	"ledger.status_us_segment_p99":              "us",
	"ledger.segment_read_frac":                  "fraction",
	"ledger.claim_us_p50":                       "us",
	"ledger.claim_us_p99":                       "us",
	"ledger.apply_us_p50":                       "us",
	"ledger.apply_us_p99":                       "us",
	"ledger.wal_records_per_sync":               "count",
	"ledger.flushes":                            "count",
	"ledger.compactions":                        "count",
	"ledger.build_snapshot_us_p50":              "us",
	"ledger.filter_sync_bytes_p50":              "bytes",
	"photo.decode_irsp_us_p50":                  "us",
	"phash.signature_us_p50":                    "us",
	"watermark.extract_us_p50":                  "us",
	"watermark.extract_us_p99":                  "us",
	"aggregator.sigindex_lookup_us_p50":         "us",
	"aggregator.sigindex_lookup_us_p99":         "us",
	"aggregator.sigindex_candidates_per_lookup": "count",
	"aggregator.status_us_p50":                  "us",
	"aggregator.custodial_claim_us_p50":         "us",
	"owner.op_ms_p50":                           "ms",
	"owner.op_ms_p99":                           "ms",
	"owner.revoke_visible_ms_p50":               "ms",
	"owner.revoke_visible_ms_p90":               "ms",
	"runtime.gc_pause_us_p99":                   "us",
	"runtime.sched_latency_us_p99":              "us",
	"runtime.alloc_bytes_per_op":                "bytes",
	"runtime.cpu_busy_frac":                     "fraction",
	"loadgen.lateness_ms_p99":                   "ms",
	"loadgen.offered_per_s":                     "1/s",
	"loadgen.completed_per_s":                   "1/s",
	"trace.overhead_frac":                       "fraction",
	"trace.reconcile_frac":                      "fraction",
	"e2e.op_ms_p99":                             "ms",
}

func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerMetrics turns a name→value map into report metrics.
func layerMetrics(v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for _, n := range layerNames() {
		out[n] = metric{finite(v[n]), layerUnits[n]}
	}
	return out
}
