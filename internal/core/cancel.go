package core

import (
	"context"
	"errors"
	"fmt"
)

// Typed cancellation errors. The public skysr package re-exports them as
// ErrSearchCancelled / ErrDeadlineExceeded; both layers match with
// errors.Is. When a context caused the cancellation, the returned error
// additionally wraps the context's error, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) hold
// where applicable.
var (
	// ErrCancelled reports a search abandoned because its
	// Options.Context was cancelled.
	ErrCancelled = errors.New("search cancelled")
	// ErrDeadlineExceeded reports a search abandoned because its
	// Options.Context's deadline passed.
	ErrDeadlineExceeded = errors.New("search deadline exceeded")
)

// cancelStride is the amortized check interval: the hot loops consult the
// context once per this many pops/settles, so a fault-free query pays one
// branch and a decrement per unit of work.
const cancelStride = 1024

// canceller is the per-query cancellation state. A query with no Context
// leaves it inert (on == false), keeping every classic code path
// byte-identical. Once an observation trips — err becomes non-nil — it
// stays tripped for the rest of the query: every loop that polls the
// canceller unwinds, and the query returns the typed error with whatever
// Stats accumulated.
type canceller struct {
	on     bool
	ctx    context.Context
	budget int
	err    error
	haltFn func() bool // cached tick closure for dijkstra.Options.Halt
}

// initCancel establishes the canceller from the query options and
// performs the upfront check, so a pre-cancelled context or already-past
// deadline returns the typed error in bounded work — before NNinit or any
// graph traversal runs.
func (s *Searcher) initCancel() error {
	c := &s.cc
	*c = canceller{ctx: s.opts.Context, on: s.opts.Context != nil}
	if !c.on {
		return nil
	}
	c.budget = cancelStride
	c.haltFn = c.tick
	c.checkNow()
	return c.err
}

// cancelled reports whether cancellation has already been observed.
func (c *canceller) cancelled() bool { return c.err != nil }

// tick is the amortized hot-path check: most calls cost one branch and a
// decrement; every cancelStride-th call consults the context.
// It reports true once the query is cancelled.
func (c *canceller) tick() bool {
	if !c.on {
		return false
	}
	if c.err != nil {
		return true
	}
	c.budget--
	if c.budget > 0 {
		return false
	}
	c.budget = cancelStride
	return c.checkNow()
}

// checkpoint consults the context immediately, skipping the stride. The
// per-run entry points (each modified Dijkstra, each destination leg,
// each NNinit stage) use it, so on small graphs — where a whole query
// performs fewer than cancelStride units of work — cancellation is still
// observed within one run.
func (c *canceller) checkpoint() bool {
	if !c.on {
		return false
	}
	return c.checkNow()
}

// checkNow performs the real observation.
func (c *canceller) checkNow() bool {
	if c.err == nil {
		c.err = ContextError(c.ctx)
	}
	return c.err != nil
}

// ContextError is the typed error a search reports for ctx: nil while ctx
// is nil or live, otherwise ErrDeadlineExceeded (for a passed deadline)
// or ErrCancelled, wrapping the context's own error.
func ContextError(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
}

// halt returns the poll function to install as dijkstra.Options.Halt: nil
// when cancellation is inactive, so the shared workspace's settle loop
// pays a single nil check per pop on classic queries.
func (c *canceller) halt() func() bool {
	return c.haltFn // nil unless initCancel armed the canceller
}
