// Package client is the Go client of the EasyHPS job service
// (internal/server): submit a DP job, wait for it, fetch its result and
// the service's metrics. The wire types are shared with the server package.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// BusyError is returned by Submit when the service applied backpressure
// (HTTP 429); RetryAfter carries the server's hint.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy, retry after %v", e.RetryAfter)
}

// APIError is any other non-2xx answer.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Client talks to one job-service base URL.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for base (e.g. "http://localhost:8080"). httpClient
// nil means http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	var body server.ErrorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Duration(body.RetryAfterSeconds) * time.Second
		if h := resp.Header.Get("Retry-After"); h != "" {
			if secs, err := strconv.Atoi(h); err == nil {
				retry = time.Duration(secs) * time.Second
			}
		}
		if retry <= 0 {
			retry = time.Second
		}
		return &BusyError{RetryAfter: retry}
	}
	return &APIError{Status: resp.StatusCode, Message: body.Error}
}

// Submit submits a job and returns its initial status (id, queued).
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Result fetches the result of a finished job; a job that is not done yet
// answers with a 409 APIError.
func (c *Client) Result(ctx context.Context, id string) (server.JobResult, error) {
	var res server.JobResult
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	return res, err
}

// Metrics fetches the raw text exposition of /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// Wait returns the job's status once it is terminal, or the last status
// seen and ctx.Err() once ctx ends. Each status request asks the server to
// hold it for up to interval (GET /v1/jobs/{id}?wait=interval), so the
// answer comes as soon as the job finishes; a non-terminal answer is
// re-asked at once. interval <= 0 means 50ms.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (server.JobStatus, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	path := "/v1/jobs/" + id + "?" + url.Values{"wait": {interval.String()}}.Encode()
	var st server.JobStatus
	for {
		var cur server.JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &cur); err != nil {
			if ctx.Err() != nil {
				return st, ctx.Err()
			}
			return st, err
		}
		st = cur
		if st.State.Terminal() {
			return st, nil
		}
	}
}
