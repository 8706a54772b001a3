// Concurrent experiment execution: the catalogue's runners are independent
// (each builds its own datasets, RNGs, and evaluators), and inside the
// learning experiments each table row is independent too, so both levels
// fan out over the bounded worker pool in internal/parsearch. Rows and
// tables are always assembled in catalogue order, so concurrent runs
// render identically to sequential ones (timing columns aside).
package experiments

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/parsearch"
)

// rowParallelism is the worker count for row-level concurrency inside the
// learning experiments: 0 (default) means runtime.GOMAXPROCS(0).
var rowParallelism atomic.Int32

// SetParallelism sets the row-level worker count used by the learning
// experiments (HeadlineMKL, SearchCost, the ablations, ...): 0 restores
// the default runtime.GOMAXPROCS(0), 1 forces sequential rows.
func SetParallelism(n int) { rowParallelism.Store(int32(n)) }

// rowWorkers resolves the configured row-level parallelism.
func rowWorkers() int { return parsearch.Workers(int(rowParallelism.Load())) }

// forEachRow runs fn for every row index on the configured row-level worker
// pool. Callers write results into index-addressed slots and assemble the
// table afterwards, keeping row order deterministic.
func forEachRow(n int, fn func(index int) error) error {
	return parsearch.Do(context.Background(), n, rowWorkers(), func(_, index int) error { return fn(index) })
}

// CatalogueResult pairs a catalogue entry with its rendered table (nil when
// the entry was skipped by fast mode).
type CatalogueResult struct {
	Runner Runner
	Table  *Table
}

// RunCatalogue runs every experiment with up to `workers` concurrent
// runners (0 means runtime.GOMAXPROCS(0)), skipping expensive entries when
// fast is set. Results come back in catalogue order regardless of
// completion order; if several runners fail, the earliest-indexed error
// among those that ran is returned, wrapped with its experiment ID.
// Callers should bound total concurrency: each runner also honors the
// row-level SetParallelism knob, so catalogue workers × row workers
// multiply (cmd/iotml sets rows sequential when fanning out here).
func RunCatalogue(fast bool, workers int) ([]CatalogueResult, error) {
	all := All()
	out := make([]CatalogueResult, len(all))
	err := parsearch.Do(context.Background(), len(all), workers, func(_, i int) error {
		r := all[i]
		out[i].Runner = r
		if fast && r.Expensive {
			return nil
		}
		tab, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		out[i].Table = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
