package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Client is a Go client for a live cache cloud: it issues document
// requests to a preferred ("nearest") cache node and fails over to the
// other nodes when that node is unreachable, mirroring how an edge
// network's request router pins users to their closest cache.
type Client struct {
	cfg     ClusterConfig
	tp      Transport
	timeout time.Duration // overall per-request budget across failovers

	mu        sync.Mutex
	preferred string
	order     []string // failover order, preferred first
	requests  int64
	failovers int64
}

// ErrNoNodesReachable is returned when every cache node failed.
var ErrNoNodesReachable = errors.New("node: no cache nodes reachable")

// NewClient builds a client for a cluster. preferred is the node that
// receives this client's traffic first; it must exist in the cluster
// configuration.
func NewClient(cfg ClusterConfig, preferred string) (*Client, error) {
	return NewClientWithTransport(cfg, preferred, nil)
}

// NewClientWithTransport builds a client whose calls go through the given
// transport (tests inject the chaos transport here). A nil transport
// selects the production default.
func NewClientWithTransport(cfg ClusterConfig, preferred string, tp Transport) (*Client, error) {
	if _, ok := cfg.Addrs[preferred]; !ok {
		return nil, fmt.Errorf("node: preferred node %q not in cluster", preferred)
	}
	order := make([]string, 0, len(cfg.Addrs))
	for name := range cfg.Addrs {
		if name != preferred {
			order = append(order, name)
		}
	}
	sort.Strings(order)
	order = append([]string{preferred}, order...)
	if tp == nil {
		tp = NewHTTPTransport(TransportOptions{RequestTimeout: 5 * time.Second})
	}
	return &Client{
		cfg:       cfg,
		tp:        tp,
		timeout:   15 * time.Second,
		preferred: preferred,
		order:     order,
	}, nil
}

// Get requests a document through the cluster under the client's default
// overall deadline. See GetContext.
func (c *Client) Get(url string) (DocResponse, string, error) {
	return c.GetContext(context.Background(), url)
}

// GetContext requests a document through the cluster: the preferred node
// first, then the remaining nodes in stable order. The context bounds the
// whole request including failovers; when it carries no deadline the
// client's default budget applies. It returns the node that served the
// request alongside the response.
func (c *Client) GetContext(ctx context.Context, url string) (DocResponse, string, error) {
	if _, has := ctx.Deadline(); !has && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	c.mu.Lock()
	order := make([]string, len(c.order))
	copy(order, c.order)
	c.requests++
	c.mu.Unlock()

	var lastErr error
	for i, name := range order {
		base := c.cfg.Addrs[name]
		var dr DocResponse
		err := c.tp.GetJSON(ctx, base+"/doc?url="+queryEscape(url), &dr)
		if err == nil {
			if i > 0 {
				c.mu.Lock()
				c.failovers++
				c.mu.Unlock()
			}
			return dr, name, nil
		}
		if errors.Is(err, errNotFound) {
			// The node answered: the document does not exist. No failover.
			return DocResponse{}, name, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrNoNodesReachable
	}
	return DocResponse{}, "", fmt.Errorf("%w: %v", ErrNoNodesReachable, lastErr)
}

// Stats returns the client's request and failover counts.
func (c *Client) Stats() (requests, failovers int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests, c.failovers
}

// Preferred returns the client's preferred node.
func (c *Client) Preferred() string { return c.preferred }
