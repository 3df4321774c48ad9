//go:build !linux || !(amd64 || arm64)

package timeserve

import "net"

// This platform has no recvmmsg/sendmmsg shim; shards always run the
// sequential serve loop and burst clients fall back to one datagram per
// syscall. The stubs keep the fallback ladder identical across builds.
const mmsgSupported = false

// serveBatched reports that the batched path is unavailable; serve falls
// back to the sequential loop.
func (s *Server) serveBatched(pc net.PacketConn, sh *shard) bool { return false }

// ServeAllocsPerOp reports -1: no batched path to measure on this build.
func ServeAllocsPerOp() float64 { return -1 }

// clientBurst is the client-side batched-I/O state on builds that have none.
type clientBurst struct{}

// burstState reports no batched ring; QueryBurst stays on the sequential
// path.
func (c *Client) burstState(i int, conn *net.UDPConn) *clientBurst { return nil }

// mmsgBurst is unreachable on this build (burstState never returns a ring);
// the stub keeps client.go portable.
func (c *Client) mmsgBurst(b *clientBurst, target int, base uint64, dgrams, k int) ([]Response, bool, error) {
	return nil, false, nil
}
