// Context-based cancellation for the closure loops.  Contexts are
// converted once per evaluation into an atomic flag that the hot loops
// poll — a single atomic load every cancelCheckRows delta rows — so the
// join inner loop never touches channel or mutex state.  The flag is set
// by a context.AfterFunc callback that the evaluation unregisters on
// return, whether it finished or was cancelled, so watching a context
// starts no goroutine and none outlives the call (asserted by
// TestCancelDoesNotLeakGoroutines).

package eval

import (
	"context"
	"sync/atomic"
)

// cancelCheckRows is how many recursive-input rows a worker processes
// between polls of the stop flag.  A power of two; small enough that a
// cancelled query returns within a few hundred row-joins, large enough
// that the poll is invisible in profiles.
const cancelCheckRows = 256

// watchContext converts ctx into a pollable stop flag.  A non-nil
// release must be called when the evaluation finishes (it is
// idempotent); it unregisters the callback that sets the flag.  A nil
// flag means ctx can never be cancelled and callers may skip polling
// entirely.  An already-cancelled ctx sets the flag before returning.
func watchContext(ctx context.Context) (stop *atomic.Bool, release func() bool) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	stop = new(atomic.Bool)
	if ctx.Err() != nil {
		stop.Store(true)
		return stop, nil
	}
	return stop, context.AfterFunc(ctx, func() { stop.Store(true) })
}

// ctxErr maps an aborted evaluation back onto its context's error,
// defaulting to Canceled for the (unreachable in practice) window where
// the flag is set before Err publishes.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}
