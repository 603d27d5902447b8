package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/trace"
)

// testClient is the Go client plus the job routes no tool calls — a job's
// status, its cancellation and its trace — which the tests reach with
// plain requests.
type testClient struct {
	*client.Client
	base string
	hc   *http.Client
}

func newTestClient(base string, hc *http.Client) *testClient {
	return &testClient{Client: client.New(base, hc), base: base, hc: hc}
}

// Status is GET /v1/jobs/{id}.
func (c *testClient) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	return st, c.call(ctx, http.MethodGet, "/v1/jobs/"+id, &st)
}

// Cancel is DELETE /v1/jobs/{id}.
func (c *testClient) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	return st, c.call(ctx, http.MethodDelete, "/v1/jobs/"+id, &st)
}

// Trace is GET /v1/jobs/{id}/trace.
func (c *testClient) Trace(ctx context.Context, id string) ([]trace.JSONEvent, error) {
	var evs []trace.JSONEvent
	return evs, c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", &evs)
}

// call sends one bodiless request and decodes a 2xx answer into out; any
// other answer is a client.APIError.
func (c *testClient) call(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		return &client.APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// isNotFound reports whether err is a 404 answer.
func isNotFound(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}
