// Package bodyclose exercises the path-sensitive response-body analysis:
// leaks on early returns, error-guard refinement (err != nil paths carry
// no response), draining without closing, escapes via return and struct
// field, //lint:allow suppression, a retry loop that continues past an
// unclosed response, a switch that closes in every case, and derived
// values: a status code saved or returned discharges nothing, the body
// handed on does.
package bodyclose

import (
	"errors"
	"io"
	"net/http"
)

type session struct {
	resp *http.Response
}

func leakOnEarlyReturn(c *http.Client, url string, cond bool) error {
	resp, err := c.Get(url) // want `response body from \(net/http\.Client\)\.Get is not closed on every path`
	if err != nil {
		return err
	}
	if cond {
		return nil // leaks the connection
	}
	return resp.Body.Close()
}

// drainWithoutClose pins that reading the body (a derived selector as a
// call argument) does NOT discharge the obligation.
func drainWithoutClose(c *http.Client, url string) error {
	resp, err := c.Get(url) // want `response body from \(net/http\.Client\)\.Get is not closed on every path`
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

func closedOnAllPaths(c *http.Client, url string, cond bool) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	if cond {
		resp.Body.Close()
		return nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

func deferRelease(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func nilGuard(c *http.Client, url string) {
	resp, _ := c.Get(url)
	if resp == nil {
		return // nothing was acquired on this path
	}
	resp.Body.Close()
}

func escapeViaReturn(c *http.Client, url string) (*http.Response, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return resp, nil // caller owns the body now
}

func escapeViaField(s *session, c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	s.resp = resp
	return nil
}

func discarded(c *http.Client, url string) {
	_, _ = c.Get(url) // want `response body from \(net/http\.Client\)\.Get is discarded`
}

func suppressed(c *http.Client, url string) error {
	//lint:allow bodyclose fixture demonstrates a justified suppression
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	_ = resp
	return nil
}

var errStatus = errors.New("unexpected status")

// retryLeaks: a non-200 attempt continues to the next without closing
// its response, and the last one falls out of the loop holding it.
func retryLeaks(c *http.Client, url string) ([]byte, error) {
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := c.Get(url) // want `response body from \(net/http\.Client\)\.Get is not closed on every path`
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return b, err
	}
	return nil, errStatus
}

func retryCloses(c *http.Client, url string) ([]byte, error) {
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := c.Get(url)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return b, err
	}
	return nil, errStatus
}

// switchCloses closes the body in every case, the default included.
func switchCloses(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		resp.Body.Close()
		return nil
	case http.StatusNotFound:
		resp.Body.Close()
		return errStatus
	default:
		resp.Body.Close()
	}
	return errStatus
}

// statusSaved keeps the status code, a number that cannot hold the body,
// and its early return leaks the response.
func statusSaved(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url) // want `response body from \(net/http\.Client\)\.Get is not closed on every path`
	if err != nil {
		return 0, err
	}
	code := resp.StatusCode
	if code != http.StatusOK {
		return code, errStatus
	}
	return code, resp.Body.Close()
}

func statusReturned(c *http.Client, url string) (int, error) {
	resp, err := c.Get(url) // want `response body from \(net/http\.Client\)\.Get is not closed on every path`
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// bodyHandedOn returns the body itself: the caller closes it.
func bodyHandedOn(c *http.Client, url string) (io.ReadCloser, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}
