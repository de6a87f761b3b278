// Package resilience is SHARP's failure-handling substrate: retry policies
// with exponential backoff and deterministic seeded jitter, circuit breakers
// for routing around failing workers, and a Backend decorator that threads
// both through the execution stack.
//
// SHARP's first pillar is capturing performance distributions accurately and
// completely (§IV-a, §IV-d): a flaky invocation must neither abort a whole
// measurement campaign nor silently drop observations. This package supplies
// the mechanisms; the launcher (package core) records every failed attempt
// as a tidy-data row so failures become data rather than gaps.
//
// All randomness (backoff jitter) is drawn from internal/randx seeded
// streams, so retried campaigns remain reproducible bit-for-bit.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sharp/internal/randx"
)

// Policy configures retrying: total attempts, exponential backoff with
// deterministic seeded jitter, and retryable-error classification.
//
// The zero value disables retrying (a single attempt, no backoff).
type Policy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values <= 1 disable retrying.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseDelay is the backoff before the first retry (default 10ms when
	// retrying is enabled).
	BaseDelay time.Duration `json:"base_delay,omitempty"`
	// MaxDelay caps the exponential backoff (default 5s).
	MaxDelay time.Duration `json:"max_delay,omitempty"`
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64 `json:"multiplier,omitempty"`
	// Jitter is the fraction of each delay that is randomized: the actual
	// delay is d * (1 - Jitter/2 + Jitter*u) for u ~ U[0,1). Default 0.1.
	// Negative disables jitter.
	Jitter float64 `json:"jitter,omitempty"`
	// Seed seeds the jitter stream so retried campaigns stay deterministic.
	Seed uint64 `json:"seed,omitempty"`
	// Retryable classifies errors; nil retries everything except errors
	// marked Permanent and context cancellation.
	Retryable func(error) bool `json:"-"`
}

// Enabled reports whether the policy performs any retries.
func (p Policy) Enabled() bool { return p.MaxAttempts > 1 }

// WithDefaults fills unset fields with the package defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.1
	}
	return p
}

// Delay returns the backoff before the retry-th retry (retry >= 1), with
// deterministic jitter drawn from rng (which may be nil for no jitter).
func (p Policy) Delay(retry int, rng *randx.RNG) time.Duration {
	p = p.WithDefaults()
	if retry < 1 {
		retry = 1
	}
	if p.BaseDelay < 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if rng != nil && p.Jitter > 0 {
		d *= 1 - p.Jitter/2 + p.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// retryable applies the policy's classification with the package defaults:
// nil errors, Permanent-marked errors, and context cancellation never retry.
func (p Policy) retryable(err error) bool {
	if err == nil {
		return false
	}
	if IsPermanent(err) || errors.Is(err, context.Canceled) {
		return false
	}
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return true
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so that no Policy retries it (configuration errors,
// unknown workloads, invalid requests). A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Sleep waits for d or until ctx is done, returning the context error in the
// latter case. Non-positive d returns immediately with ctx.Err().
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs fn under the policy, sleeping the backoff between attempts. It
// returns the number of attempts made and the last error (nil on success).
// fn receives the 1-based attempt number.
func Do(ctx context.Context, p Policy, fn func(ctx context.Context, attempt int) error) (int, error) {
	p = p.WithDefaults()
	rng := randx.New(p.Seed)
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return attempt - 1, err
		}
		err = fn(ctx, attempt)
		if err == nil {
			return attempt, nil
		}
		if attempt >= p.MaxAttempts || !p.retryable(err) {
			if p.MaxAttempts == 1 {
				return attempt, err // no retrying configured: stay transparent
			}
			return attempt, fmt.Errorf("resilience: attempt %d/%d: %w", attempt, p.MaxAttempts, err)
		}
		if serr := Sleep(ctx, p.Delay(attempt, rng)); serr != nil {
			return attempt, fmt.Errorf("resilience: aborted during backoff after attempt %d: %w", attempt, err)
		}
	}
}
