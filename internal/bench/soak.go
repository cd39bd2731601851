package bench

// The soak experiment hammers the hardened HTTP serving tier (see
// internal/serve) with mixed traffic — plain routes, aggressively
// deadlined routes, client-cancelled requests, batches, and live updates
// — while fault-injection hooks (internal/faults) delay and panic inside
// the search core. It then proves the tier recovered completely: no
// goroutine leaks, exactly one live snapshot, and answers byte-identical
// to a fresh engine built from the mutated dataset's serialization.
//
// The scenario runner lives in cmd/skysr-bench (it drives the public
// skysr.Engine API and internal/serve, which this package cannot import
// without a cycle); this file owns the row type, the text renderer and
// the CI gate.

import (
	"fmt"
	"io"
)

// SoakRow is one dataset's soak measurement.
type SoakRow struct {
	Dataset string `json:"dataset"`
	// Workers is the concurrent client count; Ops the operations they
	// attempted in total (routes, batches, updates, cancels).
	Workers int `json:"workers"`
	Ops     int `json:"ops"`

	// Outcome counters, as observed by the clients.
	OK            int64 `json:"ok"`             // 200s
	Timeouts      int64 `json:"timeouts"`       // 504s (query deadline hit)
	Rejected      int64 `json:"rejected"`       // 429s (admission queue full)
	Unavailable   int64 `json:"unavailable"`    // 503s (cancelled / draining)
	ServerPanics  int64 `json:"server_panics"`  // 500s (injected panics, recovered)
	ClientCancels int64 `json:"client_cancels"` // requests cancelled client-side
	Updates       int64 `json:"updates"`        // live updates applied
	Other         int64 `json:"other"`          // any response not counted above

	// Recovery evidence, measured after the storm quiesced.
	LeakedGoroutines int  `json:"leaked_goroutines"`
	LiveSnapshots    int  `json:"live_snapshots"`
	Identical        bool `json:"identical_to_fresh_engine"`

	// Flight-recorder evidence, scraped from /api/debug/traces before the
	// server shut down. The soak server runs with sampling off, so every
	// retained trace is a tail-kept failure; the storm's deadline hits,
	// recovered panics and client walk-aways must each show up with the
	// matching typed status annotation.
	TracedDeadlines int64 `json:"traced_deadlines"`
	TracedCancels   int64 `json:"traced_cancels"`
	TracedPanics    int64 `json:"traced_panics"`

	DurationMS float64 `json:"duration_ms"`
}

// RenderSoak writes the soak results as a text table.
func RenderSoak(w io.Writer, rows []SoakRow) {
	writeln(w, "Soak: fault-injected HTTP serving (mixed query/update/cancel traffic; recovery asserted after the storm)")
	writeln(w, "%-8s %7s %5s %6s %8s %8s %7s %7s %8s %8s %6s %5s %9s %14s %9s",
		"Dataset", "workers", "ops", "ok", "timeouts", "rejected", "unavail", "panics", "cancels", "updates", "leaks", "snaps", "identical", "traced d/c/p", "ms")
	for _, r := range rows {
		traced := fmt.Sprintf("%d/%d/%d", r.TracedDeadlines, r.TracedCancels, r.TracedPanics)
		writeln(w, "%-8s %7d %5d %6d %8d %8d %7d %7d %8d %8d %6d %5d %9v %14s %9.0f",
			r.Dataset, r.Workers, r.Ops, r.OK, r.Timeouts, r.Rejected, r.Unavailable,
			r.ServerPanics, r.ClientCancels, r.Updates, r.LeakedGoroutines, r.LiveSnapshots,
			r.Identical, traced, r.DurationMS)
	}
}

// CheckSoak enforces the CI gate for the serving tier's robustness: after
// a storm of faults and cancellations the tier must have leaked nothing
// (no goroutines, no pinned snapshots beyond the one live version), its
// answers must match a fresh engine exactly, some traffic must have
// succeeded, and the faults must actually have bitten (otherwise the run
// proved nothing).
func CheckSoak(rows []SoakRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("soak check: no rows")
	}
	for _, r := range rows {
		if r.LeakedGoroutines != 0 {
			return fmt.Errorf("soak check: %s leaked %d goroutines", r.Dataset, r.LeakedGoroutines)
		}
		if r.LiveSnapshots != 1 {
			return fmt.Errorf("soak check: %s holds %d live snapshots, want 1 (pinned-snapshot leak)", r.Dataset, r.LiveSnapshots)
		}
		if !r.Identical {
			return fmt.Errorf("soak check: %s answers diverged from a fresh engine after the storm", r.Dataset)
		}
		if r.OK == 0 {
			return fmt.Errorf("soak check: %s served no successful requests", r.Dataset)
		}
		if r.Timeouts+r.Rejected+r.ServerPanics+r.ClientCancels == 0 {
			return fmt.Errorf("soak check: %s observed no faults — the storm exercised nothing", r.Dataset)
		}
		// Every failure class the clients observed must have left a trace
		// with the matching typed status in the flight recorder.
		if r.Timeouts > 0 && r.TracedDeadlines == 0 {
			return fmt.Errorf("soak check: %s saw %d timeouts but the recorder holds no deadline-status traces", r.Dataset, r.Timeouts)
		}
		if r.ServerPanics > 0 && r.TracedPanics == 0 {
			return fmt.Errorf("soak check: %s saw %d recovered panics but the recorder holds no panic-status traces", r.Dataset, r.ServerPanics)
		}
		if r.ClientCancels > 0 && r.TracedCancels == 0 {
			return fmt.Errorf("soak check: %s saw %d client cancels but the recorder holds no cancelled-status traces", r.Dataset, r.ClientCancels)
		}
	}
	return nil
}
