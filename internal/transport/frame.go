package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Frame layout (all integers big-endian):
//
//	+---------------+---------+---------+------------------+
//	| length uint32 | version | msgtype | body (length-2)  |
//	+---------------+---------+---------+------------------+
//
// length counts the version byte, the type byte and the body — not itself —
// so a zero-body frame has length 2. Strings and byte fields inside the
// body are uvarint-length-prefixed; integers are (u)varints except where a
// struct documents otherwise. A reader that sees a length above its
// negotiated maximum rejects the frame with ErrFrameTooLarge before
// allocating; a version byte other than FrameVersion is ErrBadFrame.
const (
	// frameHeaderLen is the fixed prefix: 4-byte length + version + type.
	frameHeaderLen = 6

	// DefaultMaxFrame bounds a frame's length field (16 MB): large enough
	// for any DLU batch the engine ships, small enough that a corrupt or
	// hostile length prefix cannot balloon the reader.
	DefaultMaxFrame = 16 << 20
)

// MsgType discriminates the frames of the host-container collaborative
// protocol.
type MsgType uint8

// Protocol messages. Hello/HelloAck open a connection to one hosted node;
// Put/PutBatch land data in its Wait-Match Memory (the DLU ship path,
// replica ordinals riding in the sink keys); Consume/ConsumeAck serve the
// consume path, one frame per instance; Get/Found read a single datum
// with its payload; Release/Clear are the teardown messages; Stats/Ping
// read the remote gauges; Register is the worker -> coordinator
// announcement.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgPut
	MsgPutBatch
	MsgGet
	MsgFound
	MsgRelease
	MsgClear
	MsgStats
	MsgStatsAck
	MsgPing
	MsgPong
	MsgAck
	MsgErr
	MsgRegister
	MsgConsume
	MsgConsumeAck
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "helloack"
	case MsgPut:
		return "put"
	case MsgPutBatch:
		return "putbatch"
	case MsgGet:
		return "get"
	case MsgFound:
		return "found"
	case MsgRelease:
		return "release"
	case MsgClear:
		return "clear"
	case MsgStats:
		return "stats"
	case MsgStatsAck:
		return "statsack"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgAck:
		return "ack"
	case MsgErr:
		return "err"
	case MsgRegister:
		return "register"
	case MsgConsume:
		return "consume"
	case MsgConsumeAck:
		return "consumeack"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// AppendFrame appends one complete frame (header + body) to dst and returns
// the extended slice. The caller owns pacing and write deadlines; callers
// reuse dst across frames so steady-state framing allocates nothing.
func AppendFrame(dst []byte, t MsgType, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)+2))
	dst = append(dst, FrameVersion, byte(t))
	return append(dst, body...)
}

// WriteFrame frames and writes one message. max caps the frame length
// (DefaultMaxFrame when <= 0); an oversized body fails with
// ErrFrameTooLarge before anything is written.
func WriteFrame(w io.Writer, t MsgType, body []byte, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if len(body)+2 > max {
		return fmt.Errorf("%w: %d byte %s frame exceeds cap %d", ErrFrameTooLarge, len(body)+2, t, max)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+2))
	hdr[4], hdr[5] = FrameVersion, byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame from r, growing *buf as needed and returning
// the message type and the body (aliasing *buf — valid until the next
// ReadFrame into the same buffer). max caps the accepted frame length
// (DefaultMaxFrame when <= 0). Truncated input surfaces as
// io.ErrUnexpectedEOF from io.ReadFull, which the error taxonomy maps to
// ErrConnReset; an oversized length is ErrFrameTooLarge, read no further so
// the connection must be dropped; a foreign version byte is ErrBadFrame.
func ReadFrame(r io.Reader, buf *[]byte, max int) (MsgType, []byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 2 {
		return 0, nil, fmt.Errorf("%w: frame length %d below header", ErrBadFrame, n)
	}
	if n > uint32(max) {
		return 0, nil, fmt.Errorf("%w: frame length %d exceeds cap %d", ErrFrameTooLarge, n, max)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	if b[0] != FrameVersion {
		return 0, nil, fmt.Errorf("%w: frame version %d, want %d", ErrBadFrame, b[0], FrameVersion)
	}
	return MsgType(b[1]), b[2:], nil
}

// ---- body primitives ----

// appendUvarint / appendVarint append integers in varint form.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes appends a uvarint-length-prefixed byte field.
func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// appendBool appends a bool as one byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// wireReader decodes body primitives with a sticky truncation flag, so a
// decode function is a straight-line sequence of reads followed by one
// done() check.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)) < n {
		r.bad = true
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// bytes copies the field out of the frame buffer: frame buffers are reused
// across reads, while decoded payloads are handed to sinks that retain them.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)) < n {
		r.bad = true
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[:n])
	r.b = r.b[n:]
	return out
}

func (r *wireReader) boolean() bool {
	if len(r.b) == 0 {
		r.bad = true
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

// done returns ErrBadFrame if any read was truncated or bytes remain
// (trailing garbage means the two sides disagree about the struct shape).
func (r *wireReader) done() error {
	if r.bad {
		return fmt.Errorf("%w: truncated body", ErrBadFrame)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return nil
}
