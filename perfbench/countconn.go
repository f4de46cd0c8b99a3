package main

import (
	"sync/atomic"

	"mb2/internal/server"
)

// countingTransport wraps a server.Transport and counts every byte the
// client side of its connections writes and reads: the wire cost of the
// framed protocol, measured from outside the server package.
type countingTransport struct {
	server.Transport
	written, read atomic.Int64
}

// Dial wraps the client end of a new connection.
func (t *countingTransport) Dial() (server.Conn, error) {
	c, err := t.Transport.Dial()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t}, nil
}

// Bytes returns the bytes both directions carried so far.
func (t *countingTransport) Bytes() int64 { return t.written.Load() + t.read.Load() }

type countingConn struct {
	server.Conn
	t *countingTransport
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.read.Add(int64(n))
	return n, err
}
