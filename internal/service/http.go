package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

// Handler mounts the coordinator's HTTP API:
//
//	POST /campaigns                 submit a CampaignSpec → 202 {"id": ...}
//	GET  /campaigns                 list campaign statuses
//	GET  /campaigns/{id}            one campaign's status
//	GET  /campaigns/{id}/result.csv the durable tidy-data row log
//	POST /lease                     {"worker": ...} → Lease (204 = no work)
//	POST /leases/{id}/heartbeat     {"token": ...}
//	POST /leases/{id}/complete      {"token": ..., "results": [RunResult...],
//	                                 "next": worker} → 204, or 200 + the
//	                                worker's next Lease when "next" is set
//	                                and work is queued (all-or-nothing; 400 =
//	                                rejected batch, the lease is untouched
//	                                and nothing is granted)
//	GET  /healthz                   Health snapshot
//	GET  /metrics                   Prometheus exposition (when a Registry
//	                                is configured)
//
// Admission pressure maps to transport-visible backpressure: quota
// rejections are 429 with Retry-After, drain is 503, stale leases are 409.
//
// A busy worker names itself in "next" and so settles a lease and receives
// the next one in one round trip; it posts /lease only when an
// acknowledgment brings nothing. A client that sends no "next" gets 204,
// and a server that predates the field ignores it and answers 204, so
// either side may be older.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		id, err := c.Submit(spec)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		w.Header().Set("Location", "/campaigns/"+id)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	})

	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Campaigns())
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown campaign", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /campaigns/{id}/result.csv", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := c.Status(id); !ok {
			http.Error(w, "unknown campaign", http.StatusNotFound)
			return
		}
		data, err := os.ReadFile(c.ResultCSVPath(id))
		if err != nil {
			http.Error(w, "no result log yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Write(data)
	})

	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
			http.Error(w, "bad request: worker required", http.StatusBadRequest)
			return
		}
		l, err := c.Lease(r.Context(), req.Worker)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, l)
		case errors.Is(err, ErrNoWork):
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrDraining):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, ErrWorkerEvicted):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("POST /leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Token uint64 `json:"token"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		if err := c.Heartbeat(r.Context(), r.PathValue("id"), req.Token); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeBody
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		l, err := c.CompleteRuns(r.Context(), r.PathValue("id"), req.Token, req.Results, req.Next)
		switch {
		case errors.Is(err, ErrStaleLease):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		case l != nil:
			writeJSON(w, http.StatusOK, l)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := c.Healthz()
		code := http.StatusOK
		if h.Draining {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})

	if c.cfg.Registry != nil {
		mux.Handle("GET /metrics", c.cfg.Registry.Handler())
	}
	return mux
}

func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrTenantSaturated), errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Client talks to a sharp-serve coordinator over HTTP. It implements
// WorkerAPI, so the same Worker type serves in-process and remote fleets.
type Client struct {
	// BaseURL is the coordinator endpoint, e.g. "http://127.0.0.1:8099".
	BaseURL string
	// HTTPClient is the transport (nil = a default client; deadlines come
	// from the caller's context).
	HTTPClient *http.Client
}

// completeBody is the wire form of a batch completion. Next, when set,
// names the worker to lease the next batch to if the batch lands.
type completeBody struct {
	Token   uint64      `json:"token"`
	Results []RunResult `json:"results"`
	Next    string      `json:"next,omitempty"`
}

// NewHTTPClient returns a coordinator client with its own connection pool.
// Sharing http.DefaultTransport would leave several clients in one process
// (an in-process worker fleet plus a submitter) contending for its two idle
// connections per host, closing and redialing TCP connections on nearly
// every request.
func NewHTTPClient(baseURL string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return &Client{BaseURL: baseURL, HTTPClient: &http.Client{Transport: tr}}
}

func (cl *Client) client() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return &http.Client{}
}

func (cl *Client) doJSON(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.BaseURL+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, remoteError(resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("service: decoding response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// remoteError maps HTTP statuses back onto the protocol's sentinel errors,
// so code written against the in-process WorkerAPI behaves identically over
// the wire.
func remoteError(code int, msg string) error {
	base := fmt.Errorf("service: remote: status %d: %s", code, msg)
	switch code {
	case http.StatusConflict:
		return fmt.Errorf("%w (%v)", ErrStaleLease, base)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w (%v)", ErrDraining, base)
	case http.StatusTooManyRequests:
		if strings.Contains(msg, ErrWorkerEvicted.Error()) {
			return fmt.Errorf("%w (%v)", ErrWorkerEvicted, base)
		}
		return fmt.Errorf("%w (%v)", ErrTenantSaturated, base)
	default:
		return base
	}
}

// Submit submits a campaign and returns its ID.
func (cl *Client) Submit(ctx context.Context, spec CampaignSpec) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if _, err := cl.doJSON(ctx, http.MethodPost, "/campaigns", spec, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches one campaign's status.
func (cl *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var st CampaignStatus
	_, err := cl.doJSON(ctx, http.MethodGet, "/campaigns/"+id, nil, &st)
	return st, err
}

// ResultCSV fetches the campaign's tidy-data row log bytes.
func (cl *Client) ResultCSV(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+"/campaigns/"+id+"/result.csv", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, remoteError(resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return io.ReadAll(resp.Body)
}

// Lease implements WorkerAPI over HTTP.
func (cl *Client) Lease(ctx context.Context, workerID string) (*Lease, error) {
	var l Lease
	code, err := cl.doJSON(ctx, http.MethodPost, "/lease",
		map[string]string{"worker": workerID}, &l)
	if err != nil {
		return nil, err
	}
	if code == http.StatusNoContent {
		return nil, ErrNoWork
	}
	return &l, nil
}

// Heartbeat implements WorkerAPI over HTTP.
func (cl *Client) Heartbeat(ctx context.Context, leaseID string, token uint64) error {
	_, err := cl.doJSON(ctx, http.MethodPost, "/leases/"+leaseID+"/heartbeat",
		map[string]uint64{"token": token}, nil)
	return err
}

// Complete implements WorkerAPI over HTTP: a one-run CompleteRuns that
// asks for no next lease.
func (cl *Client) Complete(ctx context.Context, leaseID string, token uint64, res RunResult) error {
	_, err := cl.CompleteRuns(ctx, leaseID, token, []RunResult{res}, "")
	return err
}

// CompleteRuns acknowledges a batch of a lease's runs in one round trip and,
// when next names a worker, receives that worker's next lease in the same
// response (see Coordinator.CompleteRuns). A 204 is a landed batch with
// nothing granted; a server that predates "next" always answers 204.
func (cl *Client) CompleteRuns(ctx context.Context, leaseID string, token uint64, results []RunResult, next string) (*Lease, error) {
	var l Lease
	code, err := cl.doJSON(ctx, http.MethodPost, "/leases/"+leaseID+"/complete",
		completeBody{Token: token, Results: results, Next: next}, &l)
	if err != nil || code == http.StatusNoContent {
		return nil, err
	}
	return &l, nil
}
