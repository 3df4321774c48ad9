//go:build simnetpoison

package simnet

// poisonDelivered makes Fire scribble poisonByte over a datagram's bytes as
// soon as its receiver returns, so a receiver that retains the payload
// slice (transport.Receiver forbids it) reads garbage instead of a
// plausible datagram, and under -race a retained slice read from another
// goroutine is reported. Build any suite that runs over simnet with
// -tags simnetpoison to check it:
//
//	go test -race -tags simnetpoison ./internal/order
const poisonDelivered = true
