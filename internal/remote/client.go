package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"milret"
)

// Client speaks the shard RPC to one partition with per-attempt
// timeouts and, for idempotent ops, bounded retry with exponential
// backoff. Transport-level failures — connection refused, timeout, torn
// or corrupt frames — wrap milret.ErrUnavailable so the coordinator's
// partial-result policy can recognize them; shard-side verdicts arrive
// as *RemoteError and are never retried (the peer answered; asking
// again would not change its mind).
type Client struct {
	addr    string
	rpcURL  string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
}

// RPCPath is where a shard server mounts its RPC endpoint.
const RPCPath = "/rpc"

// Client tuning defaults, overridable per topology (see Topology).
const (
	DefaultRPCTimeout = 5 * time.Second
	DefaultBackoff    = 50 * time.Millisecond
)

// NewClient returns a client for the shard server at base URL addr
// (e.g. "http://10.0.0.7:8081"; a bare "host:port" is taken as http).
// timeout bounds each attempt; retries is the number of *re*-tries
// after a failed idempotent attempt; backoff is the first retry's
// delay, doubling per attempt.
func NewClient(addr string, timeout time.Duration, retries int, backoff time.Duration) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if timeout <= 0 {
		timeout = DefaultRPCTimeout
	}
	if retries < 0 {
		retries = 0
	}
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	return &Client{
		addr:    addr,
		rpcURL:  addr + RPCPath,
		hc:      &http.Client{},
		timeout: timeout,
		retries: retries,
		backoff: backoff,
	}
}

// unavailable tags a transport failure with the partition address and
// the ErrUnavailable sentinel.
func (c *Client) unavailable(err error) error {
	return fmt.Errorf("remote: partition %s: %v: %w", c.addr, err, milret.ErrUnavailable)
}

// roundTrip performs one framed request/response exchange, retrying
// transport failures when idempotent.
func (c *Client) roundTrip(ctx context.Context, op byte, body []byte, idempotent bool) (byte, []byte, error) {
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			delay := c.backoff << (i - 1)
			select {
			case <-ctx.Done():
				return 0, nil, c.unavailable(ctx.Err())
			case <-time.After(delay):
			}
		}
		rop, rbody, err := c.attempt(ctx, op, body)
		if err == nil {
			return rop, rbody, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller gave up; retrying races a dead context
		}
	}
	return 0, nil, c.unavailable(lastErr)
}

// attempt is one timed exchange.
func (c *Client) attempt(ctx context.Context, op byte, body []byte) (byte, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, body); err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.rpcURL, &buf)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	return ReadFrame(resp.Body)
}

// call runs one exchange and unwraps the response envelope: an opError
// frame becomes a *RemoteError, an op mismatch a transport failure.
func (c *Client) call(ctx context.Context, op byte, body []byte, idempotent bool) ([]byte, error) {
	rop, rbody, err := c.roundTrip(ctx, op, body, idempotent)
	if err != nil {
		return nil, err
	}
	switch rop {
	case op:
		return rbody, nil
	case opError:
		return nil, decodeError(rbody)
	}
	return nil, c.unavailable(fmt.Errorf("response op %d for request op %d", rop, op))
}

// Ping probes the partition's health.
func (c *Client) Ping(ctx context.Context) (PingResponse, error) {
	body, err := c.call(ctx, opPing, nil, true)
	if err != nil {
		return PingResponse{}, err
	}
	p, err := decodePingResponse(body)
	if err != nil {
		return PingResponse{}, c.unavailable(err)
	}
	return p, nil
}

// Stats fetches the partition's full stats tree.
func (c *Client) Stats(ctx context.Context) (milret.Stats, error) {
	body, err := c.call(ctx, opStats, nil, true)
	if err != nil {
		return milret.Stats{}, err
	}
	st, err := decodeStats(body)
	if err != nil {
		return milret.Stats{}, c.unavailable(err)
	}
	return st, nil
}

// TopK runs a single-concept top-k scan on the partition.
func (c *Client) TopK(ctx context.Context, q TopKRequest) (TopKResponse, error) {
	body, err := c.call(ctx, opTopK, q.encode(), true)
	if err != nil {
		return TopKResponse{}, err
	}
	p, err := decodeTopKResponse(body)
	if err != nil {
		return TopKResponse{}, c.unavailable(err)
	}
	return p, nil
}

// MultiTopK runs a batched multi-concept top-k scan on the partition.
func (c *Client) MultiTopK(ctx context.Context, q MultiTopKRequest) (MultiTopKResponse, error) {
	body, err := c.call(ctx, opMultiTopK, q.encode(), true)
	if err != nil {
		return MultiTopKResponse{}, err
	}
	p, err := decodeMultiTopKResponse(body)
	if err != nil {
		return MultiTopKResponse{}, c.unavailable(err)
	}
	return p, nil
}

// Fetch retrieves example bags by ID from the partition.
func (c *Client) Fetch(ctx context.Context, ids []string) ([]FetchedBag, error) {
	body, err := c.call(ctx, opFetch, FetchRequest{IDs: ids}.encode(), true)
	if err != nil {
		return nil, err
	}
	p, err := decodeFetchResponse(body)
	if err != nil {
		return nil, c.unavailable(err)
	}
	if len(p.Bags) != len(ids) {
		return nil, c.unavailable(fmt.Errorf("fetch answered %d bags for %d ids", len(p.Bags), len(ids)))
	}
	return p.Bags, nil
}

// Mutate applies one routed mutation. Mutations are NOT retried: a
// timed-out delete may have committed, and blind re-send would mask
// that ambiguity instead of surfacing it to the caller.
func (c *Client) Mutate(ctx context.Context, q MutateRequest) (MutateResponse, error) {
	body, err := c.call(ctx, opMutate, q.encode(), false)
	if err != nil {
		return MutateResponse{}, err
	}
	p, err := decodeMutateResponse(body)
	if err != nil {
		return MutateResponse{}, c.unavailable(err)
	}
	return p, nil
}

// List enumerates the partition's live images.
func (c *Client) List(ctx context.Context) ([]ListEntry, error) {
	body, err := c.call(ctx, opList, nil, true)
	if err != nil {
		return nil, err
	}
	p, err := decodeListResponse(body)
	if err != nil {
		return nil, c.unavailable(err)
	}
	return p.Entries, nil
}

// Get fetches one image's metadata from the partition.
func (c *Client) Get(ctx context.Context, id string) (GetResponse, error) {
	body, err := c.call(ctx, opGet, GetRequest{ID: id}.encode(), true)
	if err != nil {
		return GetResponse{}, err
	}
	p, err := decodeGetResponse(body)
	if err != nil {
		return GetResponse{}, c.unavailable(err)
	}
	return p, nil
}
