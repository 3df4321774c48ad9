package order

import (
	"fmt"

	"cts/internal/totem"
	"cts/internal/transport"
)

// totemOrderer adapts a totem.Node to the Orderer contract. The ring
// identifier maps onto the neutral ViewID: the ring sequence number is the
// epoch and the ring representative is the view representative.
type totemOrderer struct {
	node *totem.Node
	me   transport.NodeID
}

func newTotemOrderer(env Env, opts Options) (Orderer, error) {
	t := &totemOrderer{me: env.Transport.LocalID()}
	tc := totem.Config{
		Runtime:             env.Runtime,
		Transport:           env.Transport,
		Members:             env.Members,
		Bootstrap:           env.Bootstrap,
		TokenLossTimeout:    opts.Totem.TokenLossTimeout,
		TokenRetransTimeout: opts.Totem.TokenRetransTimeout,
		JoinTimeout:         opts.Totem.JoinTimeout,
		CommitTimeout:       opts.Totem.CommitTimeout,
		AnnounceInterval:    opts.Totem.AnnounceInterval,
		Obs:                 env.Obs,
		Deliver: func(d totem.Delivery) {
			env.Deliver(Delivery{
				TotalOrder: d.TotalOrder,
				ViewID:     ViewID{Epoch: d.Ring.Seq, Rep: d.Ring.Rep},
				Seq:        d.Seq,
				Sender:     d.Sender,
				Payload:    d.Payload,
			})
		},
	}
	if env.OnView != nil {
		tc.OnView = func(v totem.View) {
			env.OnView(View{
				ID:      ViewID{Epoch: v.Ring.Seq, Rep: v.Ring.Rep},
				Members: v.Members,
				Primary: v.Primary,
			})
		}
	}
	node, err := totem.New(tc)
	if err != nil {
		return nil, fmt.Errorf("order: totem: %w", err)
	}
	t.node = node
	return t, nil
}

func (t *totemOrderer) Start()                    { t.node.Start() }
func (t *totemOrderer) Stop()                     { t.node.Stop() }
func (t *totemOrderer) Broadcast(p []byte) error  { return t.node.Broadcast(p) }
func (t *totemOrderer) LocalID() transport.NodeID { return t.me }

func (t *totemOrderer) BroadcastCancelable(p []byte, safe bool, dupKey uint64) func() bool {
	return t.node.BroadcastCancelable(p, safe, dupKey)
}
