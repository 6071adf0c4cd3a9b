package main

import (
	"fmt"

	cc "repro"
	"repro/internal/kvcache"
	"repro/internal/svclb"
)

// Each check returns nil when one op's result is correct, else an error
// naming what broke. A non-nil error counts the op as failed.

// checkLB enforces the balancer's conservation law: once arrivals stop and
// the drain has run, every admitted request completed, and every offered
// request was either admitted or shed.
func checkLB(r svclb.Result) error {
	switch {
	case r.Completed == 0:
		return fmt.Errorf("svclb: no request completed")
	case r.Admitted != r.Completed:
		return fmt.Errorf("svclb: admitted %d != completed %d", r.Admitted, r.Completed)
	case r.Offered != r.Admitted+r.Shed:
		return fmt.Errorf("svclb: offered %d != admitted %d + shed %d", r.Offered, r.Admitted, r.Shed)
	}
	return nil
}

// checkKV enforces the cache's conservation law (every request answered or
// timed out) and the on-fabric witness (replies never touched a host).
func checkKV(r kvcache.Result) error {
	switch {
	case r.Completed == 0:
		return fmt.Errorf("kvcache: no request completed")
	case r.Completed+r.Timeouts != r.Offered:
		return fmt.Errorf("kvcache: completed %d + timeouts %d != offered %d", r.Completed, r.Timeouts, r.Offered)
	case !r.OnFabric:
		return fmt.Errorf("kvcache: replies left the fabric (%d host round trips)", r.HostRoundTrips)
	}
	return nil
}

// checkScale requires every scheduled ping to complete inside the run.
func checkScale(r cc.ScaleResult, want uint64) error {
	if r.Pings != want {
		return fmt.Errorf("scale: %d pings completed, want %d", r.Pings, want)
	}
	return nil
}

// checkDigest compares one op's determinism digest against the run's
// reference (the warm-up op's). Every op of a run uses the same seed, so
// any difference is nondeterminism; for scale-64 the reference ran with
// one worker, so a difference is also a parallel-kernel bug.
func checkDigest(ref, got uint64) error {
	if got != ref {
		return fmt.Errorf("digest %016x differs from reference %016x", got, ref)
	}
	return nil
}

// httpOutcome is what one scripted HTTP request came back with.
type httpOutcome struct {
	sent   uint64 // seq the client sent
	got    uint64 // seq the response carried
	status int    // HTTP status; 0 when the transport failed
	err    error  // transport or decode error
}

// checkHTTP counts the scripted requests that failed: a transport error,
// an unexpected status, a response carrying another request's seq
// (crossed), a seq answered twice (duplicated) or never (lost). 200
// (served) and 503 (shed) are both correct answers; a shed costs the SLO,
// not correctness.
func checkHTTP(script []uint64, outs []httpOutcome) (failed int, first error) {
	bad := map[uint64]bool{}
	mark := func(seq uint64, err error) {
		if !bad[seq] {
			bad[seq] = true
			if first == nil {
				first = err
			}
		}
	}
	answers := map[uint64]int{}
	for _, o := range outs {
		switch {
		case o.err != nil:
			mark(o.sent, fmt.Errorf("seq %d: %w", o.sent, o.err))
		case o.status != 200 && o.status != 503:
			mark(o.sent, fmt.Errorf("seq %d: HTTP status %d", o.sent, o.status))
		default:
			answers[o.got]++
			if o.got != o.sent {
				mark(o.sent, fmt.Errorf("seq %d: response carried seq %d (crossed)", o.sent, o.got))
			}
		}
	}
	for _, seq := range script {
		switch n := answers[seq]; {
		case n == 0:
			mark(seq, fmt.Errorf("seq %d: no response (lost)", seq))
		case n > 1:
			mark(seq, fmt.Errorf("seq %d: answered %d times (duplicated)", seq, n))
		}
	}
	return len(bad), first
}
