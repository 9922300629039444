package protocol

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// codecMessages is a corpus covering every message type and field shape.
var codecMessages = []Message{
	{Type: MsgHello, Role: RoleAP, ID: "ap-1", CapacityBps: 5e6},
	{Type: MsgHello, Role: RoleStation, ID: "u-1"},
	{Type: MsgHelloOK, ID: "ap-1"},
	{Type: MsgReport, LoadBps: 1234.5},
	{Type: MsgReport, AP: "ap-7", LoadBps: 0},
	{Type: MsgAssoc, DemandBps: 100},
	{Type: MsgAssign, User: "u-1", AP: "ap-2", DemandBps: 42.5},
	{Type: MsgTraffic, Bytes: 1 << 40},
	{Type: MsgTraffic, Bytes: 0},
	{Type: MsgDisassoc},
	{Type: MsgError, Error: "boom with spaces and \x00 bytes"},
	{Type: MsgAssign, User: strings.Repeat("u", 300), AP: "ap"},
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, want := range codecMessages {
		payload, err := encodePayload(nil, []Message{want})
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		queue, err := decodePayload(payload, nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if len(queue) != 1 || queue[0] != want {
			t.Errorf("round trip = %+v, want %+v", queue, want)
		}
	}
	// All messages in one payload.
	payload, err := encodePayload(nil, codecMessages)
	if err != nil {
		t.Fatal(err)
	}
	queue, err := decodePayload(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(queue) != len(codecMessages) {
		t.Fatalf("decoded %d messages, want %d", len(queue), len(codecMessages))
	}
	for i := range queue {
		if queue[i] != codecMessages[i] {
			t.Errorf("message %d = %+v, want %+v", i, queue[i], codecMessages[i])
		}
	}
}

func TestBinaryConnRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := NewConnCodec(server, 0, CodecBinary)
		for {
			m, err := c.Receive()
			if err != nil {
				return
			}
			_ = c.Send(m)
		}
	}()
	c := NewConnCodec(client, 0, CodecBinary)
	for _, want := range codecMessages {
		if err := c.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
	}
}

// TestSendBatchCoalesces: a batch travels as ONE framed write and is
// received message by message in order.
func TestSendBatchCoalesces(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	writes := &countingConn{Conn: client}
	recvd := make(chan []Message, 1)
	go func() {
		c := NewConnCodec(server, 0, CodecBinary)
		var got []Message
		for len(got) < len(codecMessages) {
			m, err := c.Receive()
			if err != nil {
				return
			}
			got = append(got, m)
		}
		recvd <- got
	}()
	c := NewConnCodec(writes, 0, CodecBinary)
	if err := c.SendBatch(codecMessages); err != nil {
		t.Fatal(err)
	}
	got := <-recvd
	for i := range got {
		if got[i] != codecMessages[i] {
			t.Errorf("message %d = %+v, want %+v", i, got[i], codecMessages[i])
		}
	}
	if n := writes.writes.Load(); n != 1 {
		t.Errorf("batch of %d messages took %d writes, want 1", len(codecMessages), n)
	}
}

// TestCodecSniffing: the main port serves binary and JSON peers side by
// side.
func TestCodecSniffing(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	// Binary station on the sniffing port.
	bs, err := DialStation(addr, "u-bin", testTimeout)
	if err != nil {
		t.Fatalf("binary station on main port: %v", err)
	}
	defer bs.Close()
	if _, err := bs.Associate(10); err != nil {
		t.Fatal(err)
	}
	// JSON station on the sniffing port.
	js, err := DialStationCodec(defaultDial, addr, "u-json", testTimeout, CodecJSON)
	if err != nil {
		t.Fatalf("JSON station on main port: %v", err)
	}
	defer js.Close()
	if _, err := js.Associate(10); err != nil {
		t.Fatal(err)
	}
}

// TestJSONLinesLiteralBytes: a peer with no client library — netcat, a
// shell script — speaks hand-written JSON lines to the main port and
// reads JSON lines back.
func TestJSONLinesLiteralBytes(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(testTimeout))
	lines := bufio.NewReader(raw)
	for _, step := range []struct{ send, want string }{
		{`{"type":"hello","role":"station","id":"u-nc"}` + "\n", `"type":"hello_ok"`},
		{`{"type":"assoc","user":"u-nc","demand_bps":10}` + "\n", `{"type":"assign","user":"u-nc","ap":"ap1"}`},
	} {
		if _, err := io.WriteString(raw, step.send); err != nil {
			t.Fatal(err)
		}
		got, err := lines.ReadString('\n')
		if err != nil {
			t.Fatalf("after %s: %v", step.send, err)
		}
		if !strings.Contains(got, step.want) {
			t.Fatalf("after %s got %q, want it to contain %s", step.send, got, step.want)
		}
	}
}

// TestAPGroupBatchedReports: one connection registers several APs and a
// single ReportAll lands one load on each.
func TestAPGroupBatchedReports(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	g, err := DialAPGroup(addr, []APSpec{
		{ID: "g-ap1", CapacityBps: 1e6},
		{ID: "g-ap2", CapacityBps: 2e6},
		{ID: "g-ap3", CapacityBps: 3e6},
	}, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.ReportAll([]float64{111, 222, 333}); err != nil {
		t.Fatal(err)
	}
	want := map[trace.APID]float64{"g-ap1": 111, "g-ap2": 222, "g-ap3": 333}
	deadline := time.Now().Add(testTimeout)
	for {
		snap := c.Snapshot()
		ok := len(snap) == 3
		for id, load := range want {
			st, present := snap[id]
			ok = ok && present && st.ReportedBps == load
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group reports not applied: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := g.ReportAll([]float64{1}); err == nil {
		t.Error("mismatched ReportAll length should error")
	}
}

// TestHostileNumericsRejected drives NaN/Inf/negative rates and negative
// byte counts at the controller over both codecs and requires an
// explicit rejection (MsgError + protocol.msg.rejected) instead of the
// value reaching load or served-byte accounting. JSON cannot spell
// NaN/Inf, so its rows cover the negative cases; the binary codec can
// carry any bit pattern and covers all of them.
func TestHostileNumericsRejected(t *testing.T) {
	c, addr := startController(t, baseline.LLF{})
	if err := c.RegisterAP("ap1", 0); err != nil {
		t.Fatal(err)
	}

	type step struct {
		hello Message // valid session hello, zero Type = the hostile one IS the hello
		msg   Message
	}
	cases := []struct {
		name   string
		codecs []Codec
		step   step
	}{
		{"hello-negative-capacity", []Codec{CodecBinary, CodecJSON},
			step{msg: Message{Type: MsgHello, Role: RoleAP, ID: "evil", CapacityBps: -1}}},
		{"hello-nan-capacity", []Codec{CodecBinary},
			step{msg: Message{Type: MsgHello, Role: RoleAP, ID: "evil", CapacityBps: math.NaN()}}},
		{"report-negative-load", []Codec{CodecBinary, CodecJSON},
			step{hello: Message{Type: MsgHello, Role: RoleAP, ID: "ap-agent", CapacityBps: 1e6},
				msg: Message{Type: MsgReport, LoadBps: -5}}},
		{"report-inf-load", []Codec{CodecBinary},
			step{hello: Message{Type: MsgHello, Role: RoleAP, ID: "ap-agent", CapacityBps: 1e6},
				msg: Message{Type: MsgReport, LoadBps: math.Inf(1)}}},
		{"assoc-nan-demand", []Codec{CodecBinary},
			step{hello: Message{Type: MsgHello, Role: RoleStation, ID: "u-hostile"},
				msg: Message{Type: MsgAssoc, DemandBps: math.NaN()}}},
		{"assoc-negative-demand", []Codec{CodecBinary, CodecJSON},
			step{hello: Message{Type: MsgHello, Role: RoleStation, ID: "u-hostile"},
				msg: Message{Type: MsgAssoc, DemandBps: -100}}},
		{"traffic-negative-bytes", []Codec{CodecBinary, CodecJSON},
			step{hello: Message{Type: MsgHello, Role: RoleStation, ID: "u-hostile"},
				msg: Message{Type: MsgTraffic, Bytes: -1 << 20}}},
	}

	for _, tc := range cases {
		for _, codec := range tc.codecs {
			t.Run(tc.name+"/"+codec.String(), func(t *testing.T) {
				before := obs.Default.GetCounter("protocol.msg.rejected").Value()
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				conn := NewConnCodec(raw, testTimeout, codec)
				if tc.step.hello.Type != "" {
					if err := conn.Send(tc.step.hello); err != nil {
						t.Fatal(err)
					}
					ok, err := conn.Receive()
					if err != nil || ok.Type != MsgHelloOK {
						t.Fatalf("hello reply = %+v, %v", ok, err)
					}
				}
				if err := conn.Send(tc.step.msg); err != nil {
					t.Fatal(err)
				}
				reply, err := conn.Receive()
				if err != nil {
					t.Fatalf("want MsgError reply, got %v", err)
				}
				if reply.Type != MsgError || !strings.Contains(reply.Error, "invalid") {
					t.Errorf("reply = %+v, want invalid-field MsgError", reply)
				}
				if after := obs.Default.GetCounter("protocol.msg.rejected").Value(); after <= before {
					t.Errorf("protocol.msg.rejected did not increase (%d -> %d)", before, after)
				}
			})
		}
	}

	// None of the hostile values reached accounting.
	snap := c.Snapshot()
	if st := snap["ap1"]; st.ReportedBps != 0 || len(st.Users) != 0 || st.ServedBytes != 0 {
		t.Errorf("hostile values leaked into state: %+v", st)
	}
	if _, ok := snap["evil"]; ok {
		t.Error("AP with hostile capacity was registered")
	}
}

// TestBinaryCRCMismatchDrops: a bit-flipped frame is refused with a CRC
// error and counted, never decoded.
func TestBinaryCRCMismatchDrops(t *testing.T) {
	payload, err := encodePayload(nil, []Message{{Type: MsgReport, LoadBps: 7}})
	if err != nil {
		t.Fatal(err)
	}
	frame := journal.AppendFrame(nil, payload)
	frame[len(frame)-1] ^= 0x01 // corrupt the payload, keep the header

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errs := make(chan error, 1)
	go func() {
		c := NewConnCodec(server, 0, CodecBinary)
		_, err := c.Receive()
		errs <- err
	}()
	before := obs.Default.GetCounter("protocol.codec.crc_errors").Value()
	if _, err := client.Write(frame); err != nil {
		t.Fatal(err)
	}
	recvErr := <-errs
	if recvErr == nil || !strings.Contains(strings.ToLower(recvErr.Error()), "crc") {
		t.Errorf("corrupt frame error = %v, want CRC mismatch", recvErr)
	}
	if after := obs.Default.GetCounter("protocol.codec.crc_errors").Value(); after <= before {
		t.Errorf("protocol.codec.crc_errors did not increase (%d -> %d)", before, after)
	}
}

// countingConn counts Write calls to observe coalescing.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func FuzzWireDecode(f *testing.F) {
	for _, m := range codecMessages {
		payload, err := encodePayload(nil, []Message{m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	all, err := encodePayload(nil, codecMessages)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // hostile uvarint count
	f.Add([]byte{0x01, 0x01})                                                 // truncated message
	f.Add(all[:len(all)/2])                                                   // truncated mid-stream

	f.Fuzz(func(t *testing.T, data []byte) {
		queue, err := decodePayload(data, nil)
		if err != nil {
			return // rejected is fine; panics and hangs are the bug class
		}
		// Whatever decoded must survive a re-encode/re-decode round trip.
		// The comparison is over re-encoded bytes, not Message equality:
		// a fuzzed frame may carry NaN float bits, and NaN != NaN.
		re, err := encodePayload(nil, queue)
		if err != nil {
			t.Fatalf("decoded messages failed to re-encode: %v (%+v)", err, queue)
		}
		back, err := decodePayload(re, nil)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		re2, err := encodePayload(nil, back)
		if err != nil {
			t.Fatalf("re-decoded messages failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("round trip diverged:\n%x\n%x", re, re2)
		}
	})
}
