package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a gputlbd daemon. The zero value is unusable; set
// BaseURL (e.g. "http://localhost:8372").
type Client struct {
	// BaseURL is the daemon's root URL, with or without trailing slash.
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// apiError decodes the daemon's {"error": ...} body into a Go error.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("daemon: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("daemon: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// Submit posts a job spec and returns the assigned job id.
func (c *Client) Submit(spec JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Post(c.url("/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", apiError(resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches one job's status.
func (c *Client) Status(id string) (Status, error) {
	resp, err := c.httpClient().Get(c.url("/jobs/" + id))
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, apiError(resp)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Wait polls until the job reaches a terminal state (done or failed) or
// ctx expires, returning the final status. poll <= 0 means 250ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(id)
		if err != nil {
			return Status{}, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, context.Cause(ctx)
		}
	}
}

// RawResult fetches the canonical result artifact bytes of a done job.
func (c *Client) RawResult(id string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.url("/jobs/" + id + "/result"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// RunCells submits cells as one job named name, waits for it and returns
// its cell results in cell order. It makes a Client an
// experiments.Executor: with Options.Executor set to a Client, every
// simulating figure runs on the daemon.
func (c *Client) RunCells(ctx context.Context, name string, cells []CellSpec) ([]CellResult, error) {
	id, err := c.Submit(JobSpec{Name: name, Cells: cells})
	if err != nil {
		return nil, err
	}
	st, err := c.Wait(ctx, id, 0)
	if err != nil {
		return nil, err
	}
	if st.State != StateDone {
		return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	res, err := c.Result(id)
	if err != nil {
		return nil, err
	}
	return res.Cells, nil
}

// Result fetches and decodes a done job's result.
func (c *Client) Result(id string) (*Result, error) {
	raw, err := c.RawResult(id)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
