package transport

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Client consumes a radar frame stream from a radard server and feeds a
// per-frame callback — typically core.Detector.FeedPlanes — on the
// caller's goroutine. It is one connection and keeps no sequence or
// metric accounting of its own; ReconnectingClient owns that.
type Client struct {
	conn  net.Conn
	dec   *Decoder
	hello StreamHello

	readTimeout time.Duration
}

// Dial connects to a radar server and reads the stream hello. The
// hello is the stream's contract: the client's decoder is pinned to
// its bin count, so a frame header announcing any other width is
// corrupt (ErrCorruptFrame) rather than a phantom payload to wait for.
// Geometry changes only with a new connection and a new hello.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetReadDeadline(deadline); err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: set deadline: %w", err)
		}
	}
	hello, err := DecodeHello(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: clear deadline: %w", err)
	}
	dec := NewDecoder(conn)
	dec.SetExpectedBins(hello.NumBins)
	return &Client{conn: conn, dec: dec, hello: hello}, nil
}

// Hello returns the stream geometry announced by the server.
func (c *Client) Hello() StreamHello { return c.hello }

// SetReadTimeout bounds each frame read: if the server stalls for
// longer than d, the pending read fails and the stream ends (a
// reconnecting consumer then redials instead of hanging on a dead but
// unclosed connection). Zero disables the deadline.
func (c *Client) SetReadTimeout(d time.Duration) { c.readTimeout = d }

// EnableResync makes the client skip corrupt frames in-stream instead
// of failing the connection (see Decoder.EnableResync). Skipped frames
// surface downstream as sequence gaps. The bin-count pin Dial set
// stays: it is what lets resync reject a damaged header.
func (c *Client) EnableResync() { c.dec.EnableResync() }

// Resyncs reports the corrupt frames skipped and garbage bytes
// discarded on this connection.
func (c *Client) Resyncs() (frames, bytesSkipped uint64) { return c.dec.Resyncs() }

// Next reads the next frame into decoder-owned I/Q planes, valid until
// the following Next. It honours the context by closing the connection
// on cancellation, which unblocks the pending read.
func (c *Client) Next(ctx context.Context) (PlaneFrame, error) {
	if err := ctx.Err(); err != nil {
		return PlaneFrame{}, err
	}
	stop := context.AfterFunc(ctx, func() { c.conn.Close() })
	defer stop()
	if c.readTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return PlaneFrame{}, fmt.Errorf("transport: set read deadline: %w", err)
		}
	}
	f, err := c.dec.DecodePlanes()
	if err != nil {
		if ctx.Err() != nil {
			return PlaneFrame{}, ctx.Err()
		}
		return PlaneFrame{}, err
	}
	return f, nil
}

// Run pulls frames until the context is cancelled or the stream ends,
// invoking fn for each; the frame's planes are valid only during the
// call. A non-nil error from fn stops the loop and is returned.
func (c *Client) Run(ctx context.Context, fn func(PlaneFrame) error) error {
	for {
		f, err := c.Next(ctx)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
	}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }
