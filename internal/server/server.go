package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"mb2/internal/engine"
	"mb2/internal/exec"
	"mb2/internal/index"
	"mb2/internal/session"
)

// Config sizes the server.
type Config struct {
	// MaxSessions is the admission cap handed to the process list
	// (<= 0 for unlimited).
	MaxSessions int
	// Contenders fixes the latch-contention scale for every session
	// (0 = live session count at admission): deterministic harnesses set
	// it so observed metrics replay bit for bit.
	Contenders float64
}

// Server terminates the framed protocol: one connection maps to one
// session in the process list, and every request is answered with
// exactly one response frame.
type Server struct {
	reg *session.Registry
	cfg Config

	mu        sync.Mutex
	listeners []Listener
	closed    bool
	wg        sync.WaitGroup
}

// New builds a server over db with its own process list.
func New(db *engine.DB, cfg Config) *Server {
	return &Server{reg: session.NewRegistry(db, cfg.MaxSessions), cfg: cfg}
}

// Registry exposes the process list — the handle the self-driving loop
// observes live traffic through.
func (s *Server) Registry() *session.Registry { return s.reg }

// Serve accepts connections from ln until it closes, handling each on
// its own goroutine. It returns nil on a clean listener close.
func (s *Server) Serve(ln Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrTransportClosed
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, ErrTransportClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops every listener and waits for in-flight connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.listeners
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	s.wg.Wait()
}

// reply sends one response frame, reporting any transport error.
func reply(conn Conn, typ byte, payload []byte) error {
	return WriteFrame(conn, Frame{Type: typ, Payload: payload})
}

// replyErr relays a statement failure without dropping the connection.
func replyErr(conn Conn, err error) error {
	return reply(conn, MsgError, encodeError(err.Error()))
}

// handleConn speaks the protocol for one connection's lifetime. The
// session opens at MsgHello and closes when the client hangs up or says
// MsgClose — including abnormal disconnects, so a dead client never
// leaks a process-list entry.
func (s *Server) handleConn(conn Conn) {
	defer conn.Close()

	// Handshake: the first frame must be MsgHello.
	f, err := ReadFrame(conn)
	if err != nil || f.Type != MsgHello {
		if err == nil {
			_ = replyErr(conn, fmt.Errorf("expected HELLO, got frame type %d", f.Type))
		}
		return
	}
	sess, err := s.reg.Open(session.Options{Contenders: s.cfg.Contenders})
	if err != nil {
		_ = replyErr(conn, err)
		return
	}
	defer sess.Close()
	if err := reply(conn, MsgHelloOK, encodeHelloOK(sess.ID)); err != nil {
		return
	}

	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return // disconnect (clean EOF or otherwise): session closes
		}
		switch f.Type {
		case MsgQuery:
			q, derr := decodeQuery(f.Payload)
			if derr != nil {
				err = replyErr(conn, derr)
				break
			}
			b, _, xerr := sess.ExecSQL(q)
			if xerr != nil {
				err = replyErr(conn, xerr)
				break
			}
			err = reply(conn, MsgRows, encodeRows(rowsResult(b)))
		case MsgPrepare:
			name, sql, derr := decodePrepare(f.Payload)
			if derr != nil {
				err = replyErr(conn, derr)
				break
			}
			if _, perr := sess.Prepare(name, sql); perr != nil {
				err = replyErr(conn, perr)
				break
			}
			err = reply(conn, MsgPrepareOK, nil)
		case MsgExec:
			name, derr := decodeExec(f.Payload)
			if derr != nil {
				err = replyErr(conn, derr)
				break
			}
			b, _, xerr := sess.ExecPrepared(name)
			if xerr != nil {
				err = replyErr(conn, xerr)
				break
			}
			err = reply(conn, MsgRows, encodeRows(rowsResult(b)))
		case MsgList:
			err = reply(conn, MsgProcs, encodeProcs(s.reg.List()))
		case MsgKill:
			id, derr := decodeKill(f.Payload)
			if derr != nil {
				err = replyErr(conn, derr)
				break
			}
			err = reply(conn, MsgKillOK, encodeKillOK(s.reg.Kill(id, nil)))
		case MsgClose:
			// Leave the process list before acknowledging, so a client
			// that has seen MsgBye never finds its session still listed.
			sess.Close()
			_ = reply(conn, MsgBye, nil)
			return
		default:
			err = replyErr(conn, fmt.Errorf("unknown frame type %d", f.Type))
		}
		if err != nil {
			return
		}
	}
}

// rowsResult summarizes a result batch for the wire.
func rowsResult(b *exec.Batch) RowsResult {
	if b == nil {
		return RowsResult{}
	}
	return RowsResult{Count: uint64(len(b.Rows)), Digest: batchDigest(b)}
}

// batchDigest hashes a result batch order-insensitively: the XOR of
// per-row canonical-encoding hashes. Replays compare equal regardless
// of operator scheduling or row order, which is what lets seeded
// load-generator digests stay bit-exact.
func batchDigest(b *exec.Batch) uint64 {
	if len(b.Rows) == 0 {
		return 0
	}
	cols := make([]int, len(b.Rows[0]))
	for i := range cols {
		cols[i] = i
	}
	var acc uint64
	buf := make([]byte, 0, 64)
	for _, row := range b.Rows {
		buf = index.AppendKeyFromTuple(buf[:0], row, cols)
		h := fnv.New64a()
		h.Write(buf)
		acc ^= h.Sum64()
	}
	return acc
}
