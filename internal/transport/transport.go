// Package transport defines the unreliable datagram abstraction that the
// Totem single-ring protocol runs over. Datagrams may be lost, duplicated or
// reordered; reliability, total order and membership are Totem's job, not
// the transport's. Two implementations exist: internal/simnet (discrete-event
// simulated network, used by tests and the experiment harness) and
// internal/udptransport (real UDP sockets, used by cmd/ctsnode).
package transport

import "fmt"

// NodeID identifies a processor (a machine/process pair) on the network.
// The paper's testbed nodes P0..P3 map to NodeIDs 0..3.
type NodeID uint32

// String implements fmt.Stringer using the paper's P<n> naming.
func (id NodeID) String() string { return fmt.Sprintf("P%d", uint32(id)) }

// Receiver consumes an inbound datagram. Implementations invoke it on the
// node's event loop; the payload must not be retained past the call unless
// copied: the slice is reused after the receiver returns.
type Receiver func(from NodeID, payload []byte)

// Transport sends and receives unreliable datagrams.
type Transport interface {
	// LocalID reports the identity of this endpoint.
	LocalID() NodeID

	// Send transmits payload to the given node, best-effort.
	Send(to NodeID, payload []byte) error

	// Broadcast transmits payload to every other known node, best-effort.
	// The local node does not receive its own broadcasts.
	Broadcast(payload []byte) error

	// SetReceiver installs the inbound datagram handler. It must be called
	// before any datagram can be delivered; datagrams arriving with no
	// receiver installed are dropped.
	SetReceiver(r Receiver)

	// Close releases the endpoint. After Close, sends fail and no further
	// datagrams are delivered.
	Close() error
}
