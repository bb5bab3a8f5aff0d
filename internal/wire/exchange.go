package wire

import (
	"errors"
	"time"

	"swift/internal/backoff"
	"swift/internal/transport"
)

// ErrNoReply is returned by Exchange when its clock gave up before the
// answer was complete.
var ErrNoReply = errors.New("wire: no reply within the retry budget")

// Exchange is the request/reply loop of every client-side control RPC,
// to an agent or to a mediator replica. It sends req to addr on conn,
// hands every reply that carries req's id to take until take reports the
// answer complete, and retransmits each time rc expires in silence,
// returning ErrNoReply once rc gives up. Each transmission carries what is
// left until rc.GiveUp as its deadline, so a server that dequeues a
// retransmit after the client's give-up point sheds it instead of serving
// a reply nobody reads. Damaged replies and replies to another id are
// skipped; a TError reply ends the exchange with its error. take's packet
// aliases a buffer the next receive reuses.
//
// A control request is one small datagram each way, so silence already
// means a lost exchange: the first retransmission backs off one level (a
// burst's first timeout retransmits at the base rate, because losing part
// of forty packets is the common case there). On return rc.Level-1 is the
// number of retransmissions.
func Exchange(conn transport.PacketConn, addr string, req *Packet, rc *backoff.Clock, take func(*Packet) (done bool)) error {
	rbuf := make([]byte, MaxPacket)
	var pkt Packet
	rc.Level = max(rc.Level, 1)
	for {
		req.Deadline = max(0, time.Until(rc.GiveUp))
		buf, err := Marshal(req)
		if err != nil {
			return err
		}
		if err := conn.WriteTo(buf, addr); err != nil {
			return err
		}
		for {
			conn.SetReadDeadline(rc.Next)
			n, _, err := conn.ReadFrom(rbuf)
			if err != nil {
				if transport.IsTimeout(err) {
					break // retransmit
				}
				return err
			}
			if Unmarshal(rbuf[:n], &pkt) != nil || pkt.ReqID != req.ReqID {
				continue // damaged or stale
			}
			if pkt.Type == TError {
				return ParseError(pkt.Payload)
			}
			if take(&pkt) {
				return nil
			}
		}
		if rc.Expire(time.Now()) {
			return ErrNoReply
		}
	}
}
