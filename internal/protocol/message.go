package protocol

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/journal"
)

// MsgType enumerates wire message types.
type MsgType string

// Wire message types.
const (
	// MsgHello registers a peer (AP agent or station) after connecting.
	// An AP agent may send further hellos on the same connection to
	// register additional APs it fronts (an AP group).
	MsgHello MsgType = "hello"
	// MsgHelloOK acknowledges registration.
	MsgHelloOK MsgType = "hello_ok"
	// MsgReport carries an AP agent's periodic load report. On a group
	// connection the AP field names which registered AP it concerns.
	MsgReport MsgType = "report"
	// MsgAssoc is a station's association request.
	MsgAssoc MsgType = "assoc"
	// MsgAssign is the controller's association decision.
	MsgAssign MsgType = "assign"
	// MsgTraffic is a station's served-traffic notification.
	MsgTraffic MsgType = "traffic"
	// MsgDisassoc is a station's departure notification.
	MsgDisassoc MsgType = "disassoc"
	// MsgError reports a protocol or policy failure.
	MsgError MsgType = "error"
	// MsgBusy is the controller's explicit shed signal: the peer was
	// refused for capacity (connection cap, association rate limit, or an
	// open federation circuit breaker), not for a protocol error.
	// RetryAfterMs advises when to try again. Shedding is never silent —
	// a refused peer always gets one of these before close.
	MsgBusy MsgType = "busy"
)

// Role identifies the peer kind in a hello.
type Role string

// Peer roles.
const (
	RoleAP      Role = "ap"
	RoleStation Role = "station"
)

// Message is the single wire message. Fields are used depending on Type;
// unused fields are omitted from both encodings.
type Message struct {
	Type MsgType `json:"type"`
	// Role and ID identify the peer in a hello.
	Role Role   `json:"role,omitempty"`
	ID   string `json:"id,omitempty"`
	// CapacityBps is the AP's bandwidth in a hello (role=ap).
	CapacityBps float64 `json:"capacity_bps,omitempty"`
	// LoadBps is the measured load in a report.
	LoadBps float64 `json:"load_bps,omitempty"`
	// User and DemandBps describe an association request.
	User      string  `json:"user,omitempty"`
	DemandBps float64 `json:"demand_bps,omitempty"`
	// AP is the assigned AP in an assign, or the reporting AP.
	AP string `json:"ap,omitempty"`
	// Bytes is the served volume in a traffic message.
	Bytes int64 `json:"bytes,omitempty"`
	// Error carries the failure description in an error message.
	Error string `json:"error,omitempty"`
	// RetryAfterMs advises a shed peer (MsgBusy) when to retry.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Conn wraps a net.Conn with message framing and I/O deadlines. It
// speaks one of two codecs: line-delimited JSON (debugging, backward
// compatibility) or the framed binary codec (the data-plane default;
// see codec.go). Server-side conns sniff the codec from the peer's
// first byte; client conns choose at dial time. Read and write buffers
// and the binary encode scratch live on the Conn and are reused across
// messages, so a steady-state send or receive performs no allocation
// beyond the decoded strings themselves.
type Conn struct {
	raw     net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	enc     *json.Encoder
	timeout time.Duration

	codec Codec
	// sniff is set on a server conn until its codec is resolved from the
	// peer's first byte: a binary frame always starts with 0xF5
	// (non-ASCII, impossible as the first byte of a JSON document).
	sniff bool

	queue   []Message // decoded messages of the current binary frame
	qpos    int       // next undelivered index into queue
	scratch []byte    // binary payload scratch
	out     []byte    // framed output scratch
	lineBuf []byte    // JSON line scratch
	hdr     [journal.FrameHeaderLen]byte
}

// NewConnCodec wraps raw as a client connection speaking codec.
// timeout bounds each read/write (0 = no deadline).
func NewConnCodec(raw net.Conn, timeout time.Duration, codec Codec) *Conn {
	return newConn(raw, timeout, codec, false)
}

// newServerConn wraps an accepted connection; its codec is sniffed from
// the peer's first byte.
func newServerConn(raw net.Conn, timeout time.Duration) *Conn {
	return newConn(raw, timeout, CodecJSON, true)
}

func newConn(raw net.Conn, timeout time.Duration, codec Codec, sniff bool) *Conn {
	c := &Conn{
		raw:     raw,
		br:      bufio.NewReaderSize(raw, 4096),
		bw:      bufio.NewWriterSize(raw, 4096),
		timeout: timeout,
		codec:   codec,
		sniff:   sniff,
	}
	c.enc = json.NewEncoder(c.bw)
	return c
}

// Codec returns the connection's negotiated codec. Before a sniffing
// server connection has received its first byte this reports JSON.
func (c *Conn) Codec() Codec { return c.codec }

// SetTimeout changes the per-operation I/O deadline. The hello phase of
// a server connection runs under a shorter deadline than steady-state
// traffic (slowloris guard); the handler widens it back once the peer
// has identified itself.
func (c *Conn) SetTimeout(d time.Duration) { c.timeout = d }

// Timeout returns the per-operation I/O deadline.
func (c *Conn) Timeout() time.Duration { return c.timeout }

// Send writes one message.
func (c *Conn) Send(m Message) error {
	if err := c.writeDeadline(); err != nil {
		return err
	}
	if c.codec == CodecBinary {
		c.scratch = binary.AppendUvarint(c.scratch[:0], 1)
		var err error
		if c.scratch, err = appendMessage(c.scratch, &m); err != nil {
			return err
		}
		return c.writeFrame()
	}
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("protocol: send %s: %w", m.Type, err)
	}
	return c.flush(m.Type)
}

// SendBatch writes a batch of messages as one unit: a single frame
// (one length, one CRC, one flush) on the binary codec, a single
// buffered flush on JSON. This is the write-coalescing primitive AP
// group agents use for batched load reports.
func (c *Conn) SendBatch(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	if err := c.writeDeadline(); err != nil {
		return err
	}
	if c.codec == CodecBinary {
		var err error
		if c.scratch, err = encodePayload(c.scratch[:0], ms); err != nil {
			return err
		}
		if len(c.scratch) > maxWireBytes {
			return fmt.Errorf("protocol: send batch: frame of %d bytes exceeds %d", len(c.scratch), maxWireBytes)
		}
		return c.writeFrame()
	}
	for i := range ms {
		if err := c.enc.Encode(ms[i]); err != nil {
			return fmt.Errorf("protocol: send %s: %w", ms[i].Type, err)
		}
	}
	return c.flush(ms[0].Type)
}

// writeFrame frames c.scratch and flushes it.
func (c *Conn) writeFrame() error {
	c.out = journal.AppendFrame(c.out[:0], c.scratch)
	if _, err := c.bw.Write(c.out); err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("protocol: send: %w", err)
	}
	return nil
}

func (c *Conn) flush(t MsgType) error {
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("protocol: send %s: %w", t, err)
	}
	return nil
}

func (c *Conn) writeDeadline() error {
	if c.timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set write deadline: %w", err)
		}
	}
	return nil
}

// Receive reads one message. io.EOF is returned verbatim on clean close.
// A multi-message binary frame is delivered one message per call; the
// rest queue on the Conn.
func (c *Conn) Receive() (Message, error) {
	if c.qpos < len(c.queue) {
		m := c.queue[c.qpos]
		c.qpos++
		return m, nil
	}
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return Message{}, fmt.Errorf("protocol: set read deadline: %w", err)
		}
	}
	if c.sniff {
		if err := c.resolveCodec(); err != nil {
			return Message{}, err
		}
	}
	if c.codec == CodecBinary {
		return c.receiveBinary()
	}
	return c.receiveJSON()
}

// Sniff resolves a server connection's codec from the peer's first byte
// without consuming a message, under the conn's read deadline. The shed
// path uses it so a MsgBusy refusal is written in the codec the peer
// actually speaks. No-op on client conns and after the codec resolved.
func (c *Conn) Sniff() error {
	if !c.sniff {
		return nil
	}
	if c.timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("protocol: set read deadline: %w", err)
		}
	}
	return c.resolveCodec()
}

// resolveCodec sniffs the peer's codec from its first byte. Runs once
// per connection.
func (c *Conn) resolveCodec() error {
	first, err := c.br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("protocol: receive: %w", err)
	}
	if first[0] == binaryFirstByte {
		c.codec = CodecBinary
		obsConnsBinary.Inc()
	} else {
		obsConnsJSON.Inc()
	}
	c.sniff = false
	return nil
}

// receiveBinary reads one frame, validates magic/length/CRC, decodes its
// messages into the queue and pops the first.
func (c *Conn) receiveBinary() (Message, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		if err == io.EOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("protocol: receive frame header: %w", err)
	}
	if binary.LittleEndian.Uint32(c.hdr[0:4]) != journal.FrameMagic {
		return Message{}, fmt.Errorf("protocol: receive: bad frame magic")
	}
	length := binary.LittleEndian.Uint32(c.hdr[4:8])
	if length > maxWireBytes {
		return Message{}, fmt.Errorf("protocol: receive: frame of %d bytes exceeds %d", length, maxWireBytes)
	}
	if cap(c.scratch) < int(length) {
		c.scratch = make([]byte, length)
	}
	payload := c.scratch[:length]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return Message{}, fmt.Errorf("protocol: receive frame payload: %w", err)
	}
	if journal.Checksum(payload) != binary.LittleEndian.Uint32(c.hdr[8:12]) {
		obsCRCErrors.Inc()
		return Message{}, fmt.Errorf("protocol: receive: frame CRC mismatch")
	}
	queue, err := decodePayload(payload, c.queue[:0])
	if err != nil {
		return Message{}, err
	}
	c.queue, c.qpos = queue, 0
	if len(c.queue) == 0 {
		return Message{}, fmt.Errorf("protocol: receive: empty frame")
	}
	c.qpos = 1
	return c.queue[0], nil
}

// receiveJSON reads one newline-terminated JSON document.
func (c *Conn) receiveJSON() (Message, error) {
	line, err := c.readLine()
	if err != nil {
		return Message{}, err
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return Message{}, fmt.Errorf("protocol: decode: %w", err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("protocol: message without type")
	}
	return m, nil
}

// readLine reads one line into the reused line buffer, capped at
// maxWireBytes (the cap the JSON scanner always imposed). io.EOF is
// returned verbatim when the stream ends cleanly between lines.
func (c *Conn) readLine() ([]byte, error) {
	c.lineBuf = c.lineBuf[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		c.lineBuf = append(c.lineBuf, frag...)
		if len(c.lineBuf) > maxWireBytes {
			return nil, fmt.Errorf("protocol: receive: line exceeds %d bytes", maxWireBytes)
		}
		switch err {
		case nil:
			return c.lineBuf[:len(c.lineBuf)-1], nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(c.lineBuf) > 0 {
				return c.lineBuf, nil
			}
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("protocol: receive: %w", err)
		}
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }
