package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// maxRespBytes caps worker response bodies (largest legal tile: 4096² of
// 8-byte format=f64 values is well under this).
const maxRespBytes = 1 << 30

// maxPresize caps the buffer get sizes from a declared Content-Length
// before any byte arrives (a 724² format=f64 tile), so a worker that
// declares a huge length and then drops the connection cannot make every
// request commit it; a longer body grows past it as it arrives.
const maxPresize = 4 << 20

// httpError is a non-2xx worker response. Retryability is decided by
// status: overload (503), budget overruns (504) and server faults (5xx)
// are worth another attempt — possibly on a replica — while validation
// errors (4xx) will fail identically everywhere. 404 is the exception: it
// means the worker lost the dataset (restart), which re-ensuring fixes.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("worker returned %d: %s", e.status, e.msg)
}

// retryable reports whether another attempt (after re-ensuring placement,
// possibly on the next replica) could succeed. Context cancellation is
// never retryable — the run is over.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	var he *httpError
	if errors.As(err, &he) {
		switch {
		case he.status >= 500:
			return true
		case he.status == http.StatusNotFound, he.status == http.StatusRequestTimeout,
			he.status == http.StatusTooManyRequests:
			return true
		default:
			return false
		}
	}
	// Transport errors (connection refused/reset, mid-body drops, corrupt
	// payloads, per-attempt timeouts) are all retryable.
	return true
}

// errorBody extracts the {"error": ...} payload of a failed response,
// falling back to the raw body.
func errorBody(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(body)
}

// get performs a GET against a worker and returns the body of its 200
// response. A body of declared length up to maxPresize is read into one
// buffer sized for it (plus the room the final EOF read asks for, so it is
// never regrown); a longer body, or one of unknown length, grows as it
// arrives.
func (c *Coordinator) get(ctx context.Context, worker, path string, query url.Values) ([]byte, error) {
	u := worker + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sized []byte
	if n := resp.ContentLength; n >= 0 {
		sized = make([]byte, 0, min(n, maxPresize)+bytes.MinRead)
	}
	buf := bytes.NewBuffer(sized)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxRespBytes)); err != nil {
		return nil, fmt.Errorf("shard: read %s: %w", path, err)
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{status: resp.StatusCode, msg: errorBody(body)}
	}
	return body, nil
}

// getJSON performs a GET against a worker and decodes the JSON response.
func (c *Coordinator) getJSON(ctx context.Context, worker, path string, query url.Values, out any) error {
	body, err := c.get(ctx, worker, path, query)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("shard: corrupt %s payload: %w", path, err)
	}
	return nil
}

// postCSV uploads a CSV-encoded dataset to a worker.
func (c *Coordinator) postCSV(ctx context.Context, worker, name string, csv []byte) error {
	u := worker + "/v1/datasets/" + url.PathEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(csv))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	if err != nil {
		return fmt.Errorf("shard: read upload response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &httpError{status: resp.StatusCode, msg: errorBody(body)}
	}
	return nil
}

// digestInfo is the worker's GET /v1/datasets/{name}/digest payload.
type digestInfo struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	Version uint64 `json:"version"`
	Digest  string `json:"digest"`
}
