package kvstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// SetChunks stores the stream r as a run of keys: it reads r into buf one
// chunk at a time and writes "SET key(i) chunk" for each chunk onto a
// single pooled connection, flushing and draining replies every
// pipelineWindow commands as Pipeline.Exec does. A chunk is len(buf)
// bytes except the last. Chunk 0 is always sent, so an empty stream still
// stores one (empty) key. buf is not retained: every chunk has been
// written out before the next is read into it.
//
// sent counts the SETs written, including any the server refused, so a
// caller cleaning up after an error deletes key(0) .. key(sent-1); total
// is the number of bytes read from r. When r fails (or ctx is done) the
// pending replies are still read, so the connection goes back to the
// pool clean, and the read error is returned. The transfer holds one
// pooled connection for as long as r takes to deliver the stream.
func (c *Client) SetChunks(ctx context.Context, r io.Reader, buf []byte, key func(i int) string) (sent int, total int64, err error) {
	if len(buf) == 0 {
		return 0, 0, fmt.Errorf("kvstore: SetChunks needs a non-empty chunk buffer")
	}
	cc, err := c.acquire(ctx)
	if err != nil {
		return 0, 0, err
	}
	reqSize := 0
	pending := 0 // SETs written whose replies have not been read
	var replyErr error
	drain := func() error {
		if pending == 0 {
			return nil
		}
		start := time.Now()
		if err := cc.w.Flush(); err != nil {
			return fmt.Errorf("kvstore: sending pipelined SET: %w", err)
		}
		c.trip()
		for ; pending > 0; pending-- {
			v, err := readValue(cc.r)
			if err != nil {
				return fmt.Errorf("kvstore: reading pipelined SET reply: %w", err)
			}
			if v.kind == respError && replyErr == nil {
				replyErr = serverError(v)
			}
		}
		c.mRTT.Since(start)
		return nil
	}
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		n, rerr := io.ReadFull(r, buf)
		eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
		if rerr != nil && !eof {
			err = fmt.Errorf("kvstore: reading chunk %d: %w", sent, rerr)
			break
		}
		if n > 0 || sent == 0 {
			k := key(sent)
			if werr := encodeCommand(cc.w, "SET", []byte(k), buf[:n]); werr != nil {
				c.release(cc, true)
				return sent, total, fmt.Errorf("kvstore: sending pipelined SET: %w", werr)
			}
			sent++
			pending++
			total += int64(n)
			reqSize += len("SET") + len(k) + n
			if pending == pipelineWindow {
				if derr := drain(); derr != nil {
					c.release(cc, true)
					return sent, total, derr
				}
			}
		}
		if eof {
			break
		}
	}
	if derr := drain(); derr != nil {
		c.release(cc, true)
		return sent, total, derr
	}
	c.release(cc, false)
	c.mPipeDepth.Observe(int64(sent))
	if err != nil {
		return sent, total, err
	}
	if replyErr != nil {
		return sent, total, replyErr
	}
	if err := c.delay(ctx, reqSize); err != nil {
		return sent, total, err
	}
	return sent, total, c.delay(ctx, 0)
}

// GetTo fetches keys with pipelined GETs on one pooled connection (one
// flush per pipelineWindow keys) and copies each value, in key order,
// straight from the connection's read buffer into w: no reply is
// materialized on the way. found counts the leading keys that exist. At
// the first missing key writes to w stop, and the remaining replies are
// read and dropped so the connection stays clean; the caller sees found <
// len(keys) with a nil error. A server error reply or ctx ending stops
// writes the same way and is returned. A failing w ends the transfer at
// once and the connection is discarded, since a reply is left half read.
//
// The transfer holds one pooled connection until the last value has been
// written, so a stalled w stalls that connection, and with the pool's
// every connection held so, any further command on the client waits for
// one. ctx is checked between replies only: a transfer blocked inside
// w.Write ends when w fails. The kvc.rtt.ns round trip it records leaves
// out the time spent in w.
func (c *Client) GetTo(ctx context.Context, keys []string, w io.Writer) (found int, err error) {
	if len(keys) == 0 {
		return 0, nil
	}
	reqSize := 0
	for _, k := range keys {
		reqSize += len("GET") + len(k)
	}
	if err := c.delay(ctx, reqSize); err != nil {
		return 0, err
	}
	cc, err := c.acquire(ctx)
	if err != nil {
		return 0, err
	}
	c.mPipeDepth.Observe(int64(len(keys)))
	respSize := 0
	stopped := false // a key was missing: drain the rest without writing
	var stopErr error
	for base := 0; base < len(keys); base += pipelineWindow {
		end := min(base+pipelineWindow, len(keys))
		for _, k := range keys[base:end] {
			if err := encodeCommand(cc.w, "GET", []byte(k)); err != nil {
				c.release(cc, true)
				return found, fmt.Errorf("kvstore: sending pipelined GET: %w", err)
			}
		}
		start := time.Now()
		var writing time.Duration // spent in w, left out of the round trip
		if err := cc.w.Flush(); err != nil {
			c.release(cc, true)
			return found, fmt.Errorf("kvstore: sending pipelined GET: %w", err)
		}
		c.trip()
		for i := base; i < end; i++ {
			if !stopped && ctx.Err() != nil {
				stopped, stopErr = true, ctx.Err()
			}
			n, err := readBulkHeader(cc.r)
			var re *ReplyError
			if errors.As(err, &re) {
				if !stopped {
					stopped, stopErr = true, re
				}
				continue
			}
			if err != nil {
				c.release(cc, true)
				return found, fmt.Errorf("kvstore: reading pipelined GET reply: %w", err)
			}
			if n < 0 {
				stopped = true
				continue
			}
			dst := w
			if stopped {
				dst = nil
			}
			d, err := copyBulk(cc.r, n, dst)
			writing += d
			if err != nil {
				c.release(cc, true)
				return found, err
			}
			if !stopped {
				found++
			}
			respSize += n
		}
		c.mRTT.Observe(int64(time.Since(start) - writing))
	}
	c.release(cc, false)
	if stopErr != nil {
		return found, stopErr
	}
	return found, c.delay(ctx, respSize)
}

// readBulkHeader reads the "$<n>\r\n" header of a bulk reply and returns
// n, or -1 for a null bulk. An error reply comes back as a *ReplyError,
// with the connection still in step; any other reply is a protocol error.
func readBulkHeader(r *bufio.Reader) (int, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, fmt.Errorf("kvstore: protocol line missing CRLF")
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case respBulkString:
		n, err := strconv.Atoi(string(body))
		if err != nil {
			return 0, fmt.Errorf("kvstore: bad bulk length %q: %w", body, err)
		}
		if n > maxBulkLen {
			return 0, fmt.Errorf("kvstore: bulk length %d exceeds limit", n)
		}
		return max(n, -1), nil
	case respError:
		return 0, &ReplyError{Msg: string(body)}
	default:
		return 0, fmt.Errorf("kvstore: unexpected reply type %q to GET", line[0])
	}
}

// copyBulk moves an n-byte bulk payload and its CRLF terminator out of r,
// writing the payload to w (or dropping it when w is nil) straight from
// r's buffer. writing is the time spent inside w.Write, which is the
// consumer's, not the round trip's.
func copyBulk(r *bufio.Reader, n int, w io.Writer) (writing time.Duration, err error) {
	for n > 0 {
		if r.Buffered() == 0 {
			if _, err := r.Peek(1); err != nil {
				return writing, fmt.Errorf("kvstore: reading bulk payload: %w", err)
			}
		}
		b, _ := r.Peek(min(n, r.Buffered()))
		if w != nil {
			start := time.Now()
			_, err := w.Write(b)
			writing += time.Since(start)
			if err != nil {
				return writing, fmt.Errorf("kvstore: writing bulk payload: %w", err)
			}
		}
		r.Discard(len(b))
		n -= len(b)
	}
	crlf, err := r.Peek(2)
	if err != nil {
		return writing, fmt.Errorf("kvstore: reading bulk payload: %w", err)
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return writing, fmt.Errorf("kvstore: bulk string missing CRLF terminator")
	}
	r.Discard(2)
	return writing, nil
}
