// Per-model serving metrics. Counters live on the registry entry — NOT on
// the scoring pipeline — so they survive hot-swaps (a refreshed model keeps
// its cumulative counts) and every read is a copy under the entry's own
// mutex: a /metrics scrape racing a swap sees a consistent snapshot, never
// torn counters. GET /v1/metrics renders them in the Prometheus text
// exposition format; /healthz embeds the same snapshots as JSON.

package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is a consistent copy-on-read snapshot of one model's serving
// counters.
type Metrics struct {
	Requests      int64 `json:"requests"`       // admitted predict requests answered
	Rejected      int64 `json:"rejected"`       // 4xx-rejected predict requests
	Shed          int64 `json:"shed"`           // load-shed predict requests (429/503)
	Drained       int64 `json:"drained"`        // requests answered while their pipeline drained
	Swaps         int64 `json:"swaps"`          // hot-swaps applied to this model
	Instances     int64 `json:"instances"`      // instances scored
	Batches       int64 `json:"batches"`        // scoring batches executed
	MaxBatchSize  int   `json:"max_batch_size"` // largest batch so far
	LastBatchSize int   `json:"last_batch_size"`
	// Per-batch scoring latency (assembly through score distribution).
	LastBatchMicros  int64 `json:"last_batch_us"`
	MaxBatchMicros   int64 `json:"max_batch_us"`
	TotalBatchMicros int64 `json:"total_batch_us"`
}

// modelMetrics guards one model's counters. All mutation happens through
// its methods under mu; Snapshot copies the whole struct under the same
// lock, so readers never observe a half-updated batch record.
type modelMetrics struct {
	mu sync.Mutex
	m  Metrics
}

// Snapshot returns a consistent copy of the counters.
func (mm *modelMetrics) Snapshot() Metrics {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.m
}

func (mm *modelMetrics) countAccepted() {
	mm.mu.Lock()
	mm.m.Requests++
	mm.mu.Unlock()
}

func (mm *modelMetrics) countRejected() {
	mm.mu.Lock()
	mm.m.Rejected++
	mm.mu.Unlock()
}

func (mm *modelMetrics) countShed() {
	mm.mu.Lock()
	mm.m.Shed++
	mm.mu.Unlock()
}

func (mm *modelMetrics) countSwap() {
	mm.mu.Lock()
	mm.m.Swaps++
	mm.mu.Unlock()
}

// recordBatch folds one executed scoring batch into the counters.
// drained marks batches answered while the owning pipeline was draining.
func (mm *modelMetrics) recordBatch(instances, requests int, elapsed time.Duration, drained bool) {
	us := elapsed.Microseconds()
	mm.mu.Lock()
	mm.m.Batches++
	mm.m.Instances += int64(instances)
	mm.m.LastBatchSize = instances
	if instances > mm.m.MaxBatchSize {
		mm.m.MaxBatchSize = instances
	}
	mm.m.LastBatchMicros = us
	mm.m.TotalBatchMicros += us
	if us > mm.m.MaxBatchMicros {
		mm.m.MaxBatchMicros = us
	}
	if drained {
		mm.m.Drained += int64(requests)
	}
	mm.mu.Unlock()
}

// promMetric is one series family of the exposition: name, type, help, and
// a value extractor applied per model.
type promMetric struct {
	name, kind, help string
	value            func(Metrics) int64
}

// promFamilies fixes the family order of the exposition so scrapes are
// reproducible (and the smoke test can grep them).
var promFamilies = []promMetric{
	{"iotml_requests_total", "counter", "Admitted predict requests answered.", func(m Metrics) int64 { return m.Requests }},
	{"iotml_rejected_total", "counter", "Predict requests rejected at validation (4xx).", func(m Metrics) int64 { return m.Rejected }},
	{"iotml_shed_total", "counter", "Predict requests shed by backpressure (429/503).", func(m Metrics) int64 { return m.Shed }},
	{"iotml_drained_total", "counter", "Requests answered while their pipeline drained.", func(m Metrics) int64 { return m.Drained }},
	{"iotml_swaps_total", "counter", "Hot-swaps applied to the model.", func(m Metrics) int64 { return m.Swaps }},
	{"iotml_instances_total", "counter", "Instances scored.", func(m Metrics) int64 { return m.Instances }},
	{"iotml_batches_total", "counter", "Scoring batches executed.", func(m Metrics) int64 { return m.Batches }},
	{"iotml_batch_latency_us_total", "counter", "Cumulative per-batch scoring latency in microseconds.", func(m Metrics) int64 { return m.TotalBatchMicros }},
	{"iotml_batch_latency_us_max", "gauge", "Largest per-batch scoring latency in microseconds.", func(m Metrics) int64 { return m.MaxBatchMicros }},
	{"iotml_batch_size_max", "gauge", "Largest scoring batch so far.", func(m Metrics) int64 { return int64(m.MaxBatchSize) }},
	{"iotml_batch_size_last", "gauge", "Most recent scoring batch size.", func(m Metrics) int64 { return int64(m.LastBatchSize) }},
}

// renderPrometheus writes the metrics in the Prometheus text exposition
// format (version 0.0.4): server-level gauges first, then the per-model
// counter families with a model label, models in sorted-id order.
func renderPrometheus(b *strings.Builder, uptime time.Duration, pending int64, reloadErrors, reloadRetries int64, perModel map[string]Metrics) {
	ids := make([]string, 0, len(perModel))
	for id := range perModel {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	fmt.Fprintf(b, "# HELP iotml_uptime_seconds Server uptime.\n# TYPE iotml_uptime_seconds gauge\niotml_uptime_seconds %d\n", int64(uptime.Seconds()))
	fmt.Fprintf(b, "# HELP iotml_models Models currently registered.\n# TYPE iotml_models gauge\niotml_models %d\n", len(ids))
	fmt.Fprintf(b, "# HELP iotml_pending_requests Predict requests currently admitted and not yet answered.\n# TYPE iotml_pending_requests gauge\niotml_pending_requests %d\n", pending)
	fmt.Fprintf(b, "# HELP iotml_reload_errors_total Artifact reload attempts that failed.\n# TYPE iotml_reload_errors_total counter\niotml_reload_errors_total %d\n", reloadErrors)
	fmt.Fprintf(b, "# HELP iotml_reload_retries_total Quick jittered re-scans after a failed artifact poll.\n# TYPE iotml_reload_retries_total counter\niotml_reload_retries_total %d\n", reloadRetries)
	for _, fam := range promFamilies {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
		for _, id := range ids {
			fmt.Fprintf(b, "%s{model=%q} %d\n", fam.name, id, fam.value(perModel[id]))
		}
	}
}
