package bench

// The churn experiment measures the live-update engine under a mixed
// read/write workload: rounds of category-index queries interleaved with
// ApplyUpdates batches (edge-weight congestion plus PoI lifecycle events).
// It reports serving throughput, update latency, and the incremental-
// repair economics of the category-level distance index — how many rows
// each update batch carried over unchanged versus repaired or rebuilt,
// compared with the rounds × resident-rows work a rebuild-everything
// strategy would pay. After every round an exactness check replays the
// query set against a fresh engine built from the mutated dataset's
// serialization.
//
// The scenario runner lives in cmd/skysr-bench (it drives the public
// skysr.Engine API, which this package cannot import without a cycle);
// this file owns the row type, the text renderer and the CI gate.

import (
	"fmt"
	"io"
)

// ChurnRow is one dataset's mixed read/write measurement.
type ChurnRow struct {
	Dataset string `json:"dataset"`
	// Rounds is the number of update batches applied; Queries counts every
	// query answered across the interleaved read phases.
	Rounds  int `json:"rounds"`
	Queries int `json:"queries"`
	// FinalEpoch is the engine's dataset version after the run.
	FinalEpoch int64 `json:"final_epoch"`

	QPS              float64 `json:"qps"`
	MeanUpdateMicros float64 `json:"mean_update_us"`

	// RowsResident is the category-index row count at the end of the run.
	// RowsCarried sums, over every update batch, the rows adopted without
	// a rebuild; RowsRepaired sums the rows ApplyUpdates repaired (the
	// batch could lower an entry) or rebuilt (a PoI left the row's
	// category). FullRebuildRows is the comparison point: the rows a
	// rebuild-everything update strategy would have recomputed (rounds ×
	// resident rows).
	RowsResident    int   `json:"rows_resident"`
	RowsCarried     int   `json:"rows_carried"`
	RowsRepaired    int64 `json:"rows_repaired"`
	FullRebuildRows int   `json:"full_rebuild_rows"`

	// Identical reports that, after every update, the engine's answers for
	// the whole query set matched a fresh engine built from the mutated
	// dataset — the live-update exactness guarantee.
	Identical bool `json:"identical_to_fresh_engine"`
}

// RenderChurn writes the churn results as a text table.
func RenderChurn(w io.Writer, rows []ChurnRow) {
	writeln(w, "Churn: mixed read/write serving (category-index profile; updates interleave with query rounds)")
	writeln(w, "%-8s %7s %8s %6s %10s %10s %9s %9s %10s %10s",
		"Dataset", "queries", "qps", "epoch", "update-µs", "resident", "carried", "repaired", "full-work", "identical")
	for _, r := range rows {
		writeln(w, "%-8s %7d %8.0f %6d %10.0f %10d %9d %9d %10d %10v",
			r.Dataset, r.Queries, r.QPS, r.FinalEpoch, r.MeanUpdateMicros,
			r.RowsResident, r.RowsCarried, r.RowsRepaired, r.FullRebuildRows, r.Identical)
	}
}

// CheckChurn enforces the CI gate for the live-update path: answers after
// every update round must match a fresh engine exactly, the incremental
// repair path must have repaired or rebuilt strictly fewer rows than a
// rebuild-everything strategy (the repair count stays below the full row
// work), and at least one row must actually have been carried (otherwise
// "incremental" did nothing).
func CheckChurn(rows []ChurnRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("churn check: no rows")
	}
	for _, r := range rows {
		if !r.Identical {
			return fmt.Errorf("churn check: %s answers diverged from a fresh engine after an update round", r.Dataset)
		}
		if r.RowsCarried <= 0 {
			return fmt.Errorf("churn check: %s carried no index rows across updates", r.Dataset)
		}
		if r.FullRebuildRows > 0 && r.RowsRepaired >= int64(r.FullRebuildRows) {
			return fmt.Errorf("churn check: %s repaired or rebuilt %d rows, not fewer than the full-rebuild work of %d",
				r.Dataset, r.RowsRepaired, r.FullRebuildRows)
		}
	}
	return nil
}
