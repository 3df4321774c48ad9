//go:build !linux || !(amd64 || arm64)

package timeserve

import "net"

// This platform has no recvmmsg/sendmmsg shim; shards always run the
// sequential serve loop and clients send one datagram per syscall. The stubs
// keep the fallback ladder identical across builds.
const mmsgSupported = false

// serveBatched reports that the batched path is unavailable; serve falls
// back to the sequential loop.
func (s *Server) serveBatched(pc net.PacketConn, sh *shard) bool { return false }

// ServeAllocsPerOp reports -1: no batched path to measure on this build.
func ServeAllocsPerOp() float64 { return -1 }

// mmsgRing is the batched-I/O ring on builds that have none.
type mmsgRing struct{}

// mmsgBurst reports the batched path unavailable; exchanges stay sequential.
func (c *Client) mmsgBurst(target int, conn *net.UDPConn, base uint64, dgrams, k int) (bool, error) {
	return false, nil
}
