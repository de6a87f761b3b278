package faas

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"sharp/internal/backend"
	"sharp/internal/resilience"
)

// DefaultInvokeTimeout bounds a single /invoke request when neither the
// backend.Request nor the caller's context carries a deadline.
const DefaultInvokeTimeout = 30 * time.Second

// Client is the FaaS execution backend: it sends /invoke requests to a
// Platform (or any compatible endpoint) and fans parallel requests out to
// the platform, which divides them across its workers — the experimental
// setup of §V-C (two parallel requests split across the A100 and H100
// nodes).
//
// Deadlines layer strictly: an explicit backend.Request.Timeout wins, then
// any deadline already on the caller's context, then InvokeTimeout as the
// safety net. The http.Client itself carries no hard-coded timeout, so a
// caller-supplied context deadline is always honored instead of being
// silently capped at 30 s.
//
// Transport failures are classified for the retry layer: connection
// refused/reset and timeouts are left retryable, while 4xx responses —
// malformed requests, unknown workloads — are marked resilience.Permanent
// so no retry policy wastes attempts on them.
type Client struct {
	// BaseURL is the platform endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil uses http.DefaultClient semantics
	// (no client-level timeout — deadlines come from the request context).
	HTTPClient *http.Client
	// InvokeTimeout bounds each /invoke when neither the request nor the
	// context has a deadline (0 = DefaultInvokeTimeout, negative = none).
	InvokeTimeout time.Duration
}

// NewClient returns a FaaS client backend.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{},
	}
}

// Name implements backend.Backend.
func (c *Client) Name() string { return "faas" }

// deadlineFor returns the per-instance context for one /invoke: the
// request's own Timeout wins, then an inherited context deadline, then
// InvokeTimeout as the safety net against a hung platform.
func (c *Client) deadlineFor(ctx context.Context, req backend.Request) (context.Context, context.CancelFunc) {
	if req.Timeout > 0 {
		return context.WithTimeout(ctx, req.Timeout)
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	d := c.InvokeTimeout
	if d == 0 {
		d = DefaultInvokeTimeout
	}
	if d < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// statusError is a non-200 platform response, carrying the HTTP status so
// retry policies can classify it after wrapping.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// StatusCode extracts the HTTP status from a faas invocation error
// (0 when err did not come from an HTTP response).
func StatusCode(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// retryableTransportErr reports whether a transport-level error is worth
// retrying: timeouts and interrupted connections (refused, reset, aborted
// mid-flight) are transient platform conditions.
func retryableTransportErr(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.ErrUnexpectedEOF)
}

// RetryableError classifies faas invocation errors for
// resilience.Policy.Retryable: connection refused/reset and timeouts are
// transient platform conditions worth retrying, as are 5xx and 429
// responses; 4xx responses (already marked resilience.Permanent by the
// client) and anything unrecognized — request construction bugs, garbage
// response bodies — are not.
func RetryableError(err error) bool {
	if err == nil || resilience.IsPermanent(err) {
		return false
	}
	if retryableTransportErr(err) {
		return true
	}
	if code := StatusCode(err); code >= 500 || code == http.StatusTooManyRequests {
		return true
	}
	return false
}

// classify marks a non-200 response for the retry layer: 4xx statuses
// other than 429 are permanent (malformed requests, unknown workloads —
// retrying cannot fix them); 5xx and 429 stay retryable.
func classify(code int, msg string) error {
	err := error(&statusError{code: code, msg: msg})
	if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
		return resilience.Permanent(err)
	}
	return err
}

// Invoke implements backend.Backend.
func (c *Client) Invoke(ctx context.Context, req backend.Request) ([]backend.Invocation, error) {
	conc := req.Concurrency
	if conc < 1 {
		conc = 1
	}
	out := make([]backend.Invocation, conc)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			ictx, cancel := c.deadlineFor(ctx, req)
			defer cancel()
			resp, err := c.post(ictx, InvokeRequest{
				Workload: req.Workload,
				Day:      req.Day,
				Cold:     req.Cold,
				Run:      req.Run,
			})
			inv := backend.Invocation{Instance: inst + 1}
			if err != nil {
				inv.Err = err
				inv.Metrics = map[string]float64{}
			} else {
				inv.Metrics = resp.Metrics
				inv.Worker = resp.Worker
			}
			out[inst] = inv
		}(i)
	}
	wg.Wait()
	// A request-level error only when every instance failed identically.
	allFailed := true
	for _, inv := range out {
		if inv.Err == nil {
			allFailed = false
			break
		}
	}
	if allFailed && conc > 0 {
		err := fmt.Errorf("faas: all %d instances failed: %w", conc, out[0].Err)
		if resilience.IsPermanent(out[0].Err) {
			err = resilience.Permanent(err)
		}
		return out, err
	}
	return out, nil
}

func (c *Client) post(ctx context.Context, body InvokeRequest) (*InvokeResponse, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/invoke", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	client := c.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	httpResp, err := client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, httpResp.Body)
		httpResp.Body.Close()
	}()
	// Check the status before decoding: a non-200 with a non-JSON body (a
	// proxy error page, a plain-text http.Error) must surface as a status
	// error, not a confusing "decoding response" failure.
	if httpResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		var resp InvokeResponse
		if json.Unmarshal(raw, &resp) == nil && resp.Error != "" {
			return nil, classify(httpResp.StatusCode,
				fmt.Sprintf("faas: status %d: %s", httpResp.StatusCode, resp.Error))
		}
		return nil, classify(httpResp.StatusCode,
			fmt.Sprintf("faas: status %d: %s", httpResp.StatusCode,
				strings.TrimSpace(string(raw))))
	}
	var resp InvokeResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("faas: decoding response: %w", err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("faas: %s", resp.Error)
	}
	return &resp, nil
}

// Close implements backend.Backend.
func (c *Client) Close() error { return nil }
