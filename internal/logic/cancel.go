package logic

import "context"

// Done returns ctx's done channel, tolerating a nil context (the
// engines treat nil as context.Background(): never cancelled). Polling
// a nil channel in a select with a default case is free, so callers can
// hold the channel instead of re-checking ctx.
func Done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Cancelled reports whether the done channel (from Done) is closed,
// without blocking.
func Cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
