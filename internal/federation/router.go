package federation

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Routing front-end: every replica accepts any peer. The hello names
// the peer (AP agent by AP ID, station by user ID), which hashes to a
// federation group; a locally owned group is served by the local
// controller via HandleSession, anything else is relayed message-wise
// over the binary codec to whichever node the group's lease names.
//
// The lease file is the routing truth: a relay target is only ever the
// current lease holder, and a node never serves a group it does not
// own — it replies with an error instead of forwarding again, so a
// misrouted connection terminates after one hop instead of looping.
// Clients retry through their normal reconnect path and land on the
// new owner once the lease settles.

// listenRouter starts the accept loop.
func (n *Node) listenRouter(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("federation: listen: %w", err)
	}
	bound := ln.Addr().String()
	if n.cfg.WrapListener != nil {
		ln = n.cfg.WrapListener(ln)
	}
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return bound, nil
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		raw, err := ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if !n.trackConn(raw) {
			raw.Close()
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.untrackConn(raw)
			conn := protocol.NewServerConn(raw, n.cfg.Timeout)
			defer protocol.ContainPanic(n.cfg.Logger, conn)
			n.route(conn)
		}()
	}
}

// route reads the hello, resolves the owning group and either serves
// locally or relays to the lease holder. The hello runs under the same
// short deadline the controller's own accept path applies, so a peer
// that connects and says nothing cannot pin a router goroutine for the
// full relay timeout.
func (n *Node) route(conn *protocol.Conn) {
	defer conn.Close()
	full := conn.Timeout()
	if ht := protocol.DefaultHelloTimeout; full <= 0 || ht < full {
		conn.SetTimeout(ht)
	}
	hello, err := conn.Receive()
	if err != nil {
		return
	}
	conn.SetTimeout(full)
	if hello.Type != protocol.MsgHello {
		conn.Send(protocol.Message{Type: protocol.MsgError,
			Error: fmt.Sprintf("expected hello, got %s", hello.Type)})
		return
	}
	var g int
	switch hello.Role {
	case protocol.RoleAP:
		g = n.cfg.Ownership.GroupOfAP(trace.APID(hello.ID))
	case protocol.RoleStation:
		g = n.cfg.Ownership.GroupOfUser(trace.UserID(hello.ID))
	default:
		conn.Send(protocol.Message{Type: protocol.MsgError,
			Error: fmt.Sprintf("unknown role %q", hello.Role)})
		return
	}

	gs := n.groups[g]
	gs.mu.Lock()
	ctrl, owned := gs.ctrl, gs.role == RoleOwner
	gs.mu.Unlock()
	if owned {
		ctrl.HandleSession(conn, hello)
		return
	}

	l, err := n.leases.Read(g)
	if err != nil || l == nil || l.Addr == "" || l.Owner == n.cfg.NodeID {
		// No owner (yet), or the lease names us before promotion
		// finished: refuse rather than forward — one hop, never a loop.
		conn.Send(protocol.Message{Type: protocol.MsgError,
			Error: fmt.Sprintf("group %d has no live owner; retry", g)})
		return
	}
	// Circuit breaker: while the group's breaker is open, refuse locally
	// with MsgBusy in microseconds instead of paying a dial timeout per
	// peer against a dead owner. A lease move resets the breaker inside
	// Allow; a cooled-down breaker lets this connection through as its
	// half-open probe.
	br := n.breakers[g]
	if !br.Allow(l.Addr) {
		obsBreakerRefusals.Inc()
		conn.Send(protocol.Message{Type: protocol.MsgBusy,
			Error:        fmt.Sprintf("group %d owner circuit open; retry", g),
			RetryAfterMs: int64(n.breakerCooldown() / time.Millisecond)})
		return
	}
	// The breaker learns the establishment outcome, not the session
	// outcome: relay invokes br.Success the moment the owner's first
	// reply lands (sessions are long-lived — waiting for session end
	// would leave a half-open probe pinning the whole group on one
	// probe's lifetime), and only a relay that never reached that point
	// counts a Failure. A session's eventual teardown never touches the
	// breaker — pumps failing because the owner died later is the next
	// establishment attempt's news, and a long session ending cleanly
	// must not reset a breaker that tripped in the meantime. A failure
	// is recorded before the peer hears of it, so a peer that redials at
	// once meets the breaker's updated state.
	if err := n.relay(conn, hello, l.Addr, br.Success); err != nil {
		br.Failure()
		obsRelayErrors.Inc()
		conn.Send(protocol.Message{Type: protocol.MsgError, Error: err.Error()})
	}
}

// breakerCooldown resolves the configured breaker cooldown (the
// MsgBusy retry advice an open breaker sends).
func (n *Node) breakerCooldown() time.Duration {
	if n.cfg.BreakerCooldown > 0 {
		return n.cfg.BreakerCooldown
	}
	return time.Second
}

// relay pumps one peer connection to the group owner at addr over the
// binary codec: the hello first, then each direction batch-for-batch
// (ReceiveBatch/SendBatch preserve the peer's frame boundaries, so a
// group agent's coalesced report batch stays one frame on the owner
// side). The relay is transparent: decisions, errors and acks all come
// from the owner.
//
// The group's circuit breaker feeds off the *establishment* outcome:
// established() fires as soon as the owner produces its first reply
// batch (the hello ack or a policy error — either proves a live
// owner), and a returned error marks a relay that never got there —
// the owner could not be dialed, refused the hello, or sat silent past
// the relay deadline; the caller records it and tells the peer. Waiting for the first reply is what makes a
// *stalled* owner — one that accepts connections and then hangs —
// count against the breaker budget instead of passing for healthy.
// Nothing after establishment reports to the breaker: relay() itself
// returns only at session end, far too late for a half-open probe's
// verdict, and a session outliving its owner must not reset a breaker
// that correctly tripped while the session ran.
func (n *Node) relay(client *protocol.Conn, hello protocol.Message, addr string, established func()) error {
	obsRelays.Inc()
	raw, err := net.DialTimeout("tcp", addr, n.cfg.Timeout)
	if err != nil {
		return fmt.Errorf("group owner unreachable: %v", err)
	}
	owner := protocol.NewConnCodec(raw, n.cfg.Timeout, protocol.CodecBinary)
	defer owner.Close()
	if err := owner.Send(hello); err != nil {
		return fmt.Errorf("relay hello: %v", err)
	}
	first, err := owner.ReceiveBatch(nil)
	if err != nil {
		return fmt.Errorf("relay: owner unresponsive: %v", err)
	}
	established()
	if err := client.SendBatch(first); err != nil {
		obsRelayErrors.Inc()
		return nil // the owner is fine; the client side failed
	}

	// Downstream pump (owner → client) runs aside; the upstream pump
	// (client → owner) runs here. Either side closing or failing tears
	// both connections down, which unblocks the other pump.
	done := make(chan struct{})
	go func() {
		defer close(done)
		pump(owner, client)
		client.Close()
	}()
	if err := pump(client, owner); err != nil && !errors.Is(err, io.EOF) {
		obsRelayErrors.Inc()
	}
	owner.Close()
	<-done
	return nil
}

// pump copies message batches from src to dst until either side fails.
func pump(src, dst *protocol.Conn) error {
	var buf []protocol.Message
	for {
		var err error
		buf, err = src.ReceiveBatch(buf)
		if err != nil {
			return err
		}
		if err := dst.SendBatch(buf); err != nil {
			return err
		}
	}
}

// WaitOwner blocks until some node owns group g's lease (fresh and
// addressed) or the deadline passes — a convenience for tests and the
// s3proto cluster bring-up to await settling.
func (n *Node) WaitOwner(g int, timeout time.Duration) (*Lease, error) {
	deadline := time.Now().Add(timeout)
	for {
		l, err := n.leases.Read(g)
		if err == nil && l != nil && l.Addr != "" && !l.Expired(n.cfg.nowMs()) {
			return l, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("federation: group %d: no owner within %v", g, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
