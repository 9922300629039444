package protocol

// Binary wire codec. The controller's data plane reuses the journal's
// magic|length|CRC-32C framing (internal/journal): one frame carries a
// batch of compactly encoded Messages, so a client can coalesce several
// messages (e.g. an AP group's load reports) into a single write and a
// single checksum. The frame magic's first byte on the wire (0xF5) is
// non-ASCII, so a listener serving both codecs tells a binary peer from
// a JSON-lines peer by peeking one byte: no JSON document can begin
// with 0xF5.
//
// Message layout inside a frame payload:
//
//	uvarint  message count
//	per message:
//	  byte    type  (wireType enum)
//	  byte    flags (bit0 CapacityBps, bit1 LoadBps, bit2 DemandBps,
//	                 bit3 Bytes, bit4 RetryAfterMs)
//	  string  Role, ID, User, AP, Error   (uvarint length + raw bytes)
//	  float64 CapacityBps, LoadBps, DemandBps (8-byte LE bits, if flagged)
//	  varint  Bytes, RetryAfterMs (zigzag, if flagged)
//
// Absent numeric fields cost one flag bit; absent strings cost one byte.
// The encoding is deliberately order-fixed and versionless: the framing
// (magic + CRC) already rejects foreign bytes, and the hello exchange
// pins both ends to the same repository version in this prototype.
// Versionless cuts both ways: a wire type or flag bit an older peer
// does not know (e.g. MsgBusy / RetryAfterMs, added with overload
// protection) is a hard decode error there, so in a mixed-version
// cluster upgrade relays and clients before enabling the features that
// emit new vocabulary — see the mixed-version rollout note in
// docs/ARCHITECTURE.md.

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
)

// Codec-boundary health counters: how peers negotiated their codec, and
// what the ingress validation rejected.
var (
	obsConnsJSON   = obs.GetCounter("protocol.conns.json", "Server connections speaking the JSON-lines codec (sniffed by first byte)")
	obsConnsBinary = obs.GetCounter("protocol.conns.binary", "Server connections speaking the binary framed codec (sniffed by first byte)")
	obsCRCErrors   = obs.GetCounter("protocol.codec.crc_errors", "Binary frames dropped for a CRC-32C mismatch")
	obsMsgRejected = obs.GetCounter("protocol.msg.rejected", "Messages rejected at the codec boundary (hostile numerics or malformed fields)")
)

// Codec selects a Conn's wire encoding.
type Codec int

const (
	// CodecBinary is the framed binary encoding — the data-plane default
	// and the zero value, so client dials and ReconnectConfig default to
	// it.
	CodecBinary Codec = iota
	// CodecJSON is the line-delimited JSON encoding — the debugging and
	// backward-compatibility codec, sniffed on the same port as binary.
	CodecJSON
)

// String returns the CLI/log spelling.
func (c Codec) String() string {
	if c == CodecJSON {
		return "json"
	}
	return "binary"
}

// binaryFirstByte is the first wire byte of every binary frame: the
// little-endian low byte of journal.FrameMagic.
const binaryFirstByte = byte(journal.FrameMagic & 0xFF)

// maxWireBytes bounds one frame payload (and one JSON line) — matches
// the 1 MiB line cap the JSON scanner always had.
const maxWireBytes = 1 << 20

// wireType is the binary spelling of MsgType.
var wireTypes = [...]MsgType{
	1: MsgHello,
	2: MsgHelloOK,
	3: MsgReport,
	4: MsgAssoc,
	5: MsgAssign,
	6: MsgTraffic,
	7: MsgDisassoc,
	8: MsgError,
	9: MsgBusy,
}

func wireTypeOf(t MsgType) (byte, bool) {
	for i := 1; i < len(wireTypes); i++ {
		if wireTypes[i] == t {
			return byte(i), true
		}
	}
	return 0, false
}

// Field-presence flags.
const (
	flagCapacity = 1 << iota
	flagLoad
	flagDemand
	flagBytes
	flagRetry
)

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendMessage appends one encoded message to dst.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	wt, ok := wireTypeOf(m.Type)
	if !ok {
		return dst, fmt.Errorf("protocol: encode: unknown message type %q", m.Type)
	}
	var flags byte
	if m.CapacityBps != 0 {
		flags |= flagCapacity
	}
	if m.LoadBps != 0 {
		flags |= flagLoad
	}
	if m.DemandBps != 0 {
		flags |= flagDemand
	}
	if m.Bytes != 0 {
		flags |= flagBytes
	}
	if m.RetryAfterMs != 0 {
		flags |= flagRetry
	}
	dst = append(dst, wt, flags)
	dst = appendString(dst, string(m.Role))
	dst = appendString(dst, m.ID)
	dst = appendString(dst, m.User)
	dst = appendString(dst, m.AP)
	dst = appendString(dst, m.Error)
	if flags&flagCapacity != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.CapacityBps))
	}
	if flags&flagLoad != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.LoadBps))
	}
	if flags&flagDemand != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.DemandBps))
	}
	if flags&flagBytes != 0 {
		dst = binary.AppendVarint(dst, m.Bytes)
	}
	if flags&flagRetry != 0 {
		dst = binary.AppendVarint(dst, m.RetryAfterMs)
	}
	return dst, nil
}

// encodePayload appends the frame payload (count + messages) for ms.
func encodePayload(dst []byte, ms []Message) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(ms)))
	var err error
	for i := range ms {
		if dst, err = appendMessage(dst, &ms[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func decodeString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("protocol: decode: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func decodeFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("protocol: decode: truncated float")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// decodeMessage decodes one message from b, returning the remainder.
func decodeMessage(b []byte) (Message, []byte, error) {
	var m Message
	if len(b) < 2 {
		return m, nil, fmt.Errorf("protocol: decode: truncated message header")
	}
	wt, flags := b[0], b[1]
	if int(wt) >= len(wireTypes) || wt == 0 {
		return m, nil, fmt.Errorf("protocol: decode: unknown message type %d", wt)
	}
	m.Type = wireTypes[wt]
	b = b[2:]
	var role string
	var err error
	if role, b, err = decodeString(b); err != nil {
		return m, nil, err
	}
	m.Role = Role(role)
	if m.ID, b, err = decodeString(b); err != nil {
		return m, nil, err
	}
	if m.User, b, err = decodeString(b); err != nil {
		return m, nil, err
	}
	if m.AP, b, err = decodeString(b); err != nil {
		return m, nil, err
	}
	if m.Error, b, err = decodeString(b); err != nil {
		return m, nil, err
	}
	if flags&flagCapacity != 0 {
		if m.CapacityBps, b, err = decodeFloat(b); err != nil {
			return m, nil, err
		}
	}
	if flags&flagLoad != 0 {
		if m.LoadBps, b, err = decodeFloat(b); err != nil {
			return m, nil, err
		}
	}
	if flags&flagDemand != 0 {
		if m.DemandBps, b, err = decodeFloat(b); err != nil {
			return m, nil, err
		}
	}
	if flags&flagBytes != 0 {
		v, sz := binary.Varint(b)
		if sz <= 0 {
			return m, nil, fmt.Errorf("protocol: decode: truncated varint")
		}
		m.Bytes = v
		b = b[sz:]
	}
	if flags&flagRetry != 0 {
		v, sz := binary.Varint(b)
		if sz <= 0 {
			return m, nil, fmt.Errorf("protocol: decode: truncated varint")
		}
		m.RetryAfterMs = v
		b = b[sz:]
	}
	return m, b, nil
}

// decodePayload decodes a frame payload into queue (appended) and
// returns the extended queue. Trailing garbage after the declared
// message count is an error — a CRC-valid frame is all or nothing.
func decodePayload(payload []byte, queue []Message) ([]Message, error) {
	count, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return queue, fmt.Errorf("protocol: decode: truncated message count")
	}
	b := payload[sz:]
	// Each message costs ≥ 7 bytes; a count beyond that is hostile.
	if count > uint64(len(b)/7)+1 {
		return queue, fmt.Errorf("protocol: decode: implausible message count %d", count)
	}
	for i := uint64(0); i < count; i++ {
		m, rest, err := decodeMessage(b)
		if err != nil {
			return queue, err
		}
		if m.Type == "" {
			return queue, fmt.Errorf("protocol: message without type")
		}
		queue = append(queue, m)
		b = rest
	}
	if len(b) != 0 {
		return queue, fmt.Errorf("protocol: decode: %d trailing bytes after %d messages", len(b), count)
	}
	return queue, nil
}

// validNumber reports whether v is a usable non-negative finite number.
func validNumber(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// validateMessage is the server's ingress gate, applied identically on
// the JSON and binary ports: every numeric field a peer can send must be
// finite and non-negative before it reaches load or served-byte
// accounting. A negative Bytes would decrement served counters; a
// NaN/Inf/negative rate would poison domain load state and every policy
// comparison downstream.
func validateMessage(m *Message) error {
	if !validNumber(m.CapacityBps) {
		return fmt.Errorf("invalid capacity_bps %v", m.CapacityBps)
	}
	if !validNumber(m.LoadBps) {
		return fmt.Errorf("invalid load_bps %v", m.LoadBps)
	}
	if !validNumber(m.DemandBps) {
		return fmt.Errorf("invalid demand_bps %v", m.DemandBps)
	}
	if m.Bytes < 0 {
		return fmt.Errorf("invalid bytes %d", m.Bytes)
	}
	if m.RetryAfterMs < 0 {
		return fmt.Errorf("invalid retry_after_ms %d", m.RetryAfterMs)
	}
	return nil
}
