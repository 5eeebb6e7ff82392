package serve

import (
	"os"
	"os/signal"
	"syscall"
	"time"
)

// CatchShutdown starts catching SIGINT and SIGTERM and returns the
// wait that blocks until the process should exit: a caught signal
// arrives, or hold elapses — whichever comes first.
//
//   - hold < 0: wait for a signal alone (serve forever);
//   - hold == 0: return immediately (one-shot runs that only hold the
//     server open as a side effect of other work);
//   - hold > 0: wait up to hold, a signal ends the wait early.
//
// The wait returns the reason ("signal" or "hold elapsed") so callers
// can log which path ended the run, and stops the catching; call it
// exactly once. A server calls CatchShutdown before announcing its
// listener, so a signal sent the moment the address is announced ends
// the wait — and the drain runs — instead of killing the process. The
// CLI tools' -hold flag waits here too, so a scrape-and-kill CI job or
// an operator's Ctrl-C ends the hold the moment it fires.
func CatchShutdown() func(hold time.Duration) string {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return func(hold time.Duration) string {
		defer signal.Stop(sig)
		if hold == 0 {
			return "hold elapsed"
		}
		if hold < 0 {
			<-sig
			return "signal"
		}
		t := time.NewTimer(hold)
		defer t.Stop()
		select {
		case <-sig:
			return "signal"
		case <-t.C:
			return "hold elapsed"
		}
	}
}
