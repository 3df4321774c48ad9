package order

import (
	"strings"
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", KindTotem, false},
		{"totem", KindTotem, false},
		{"seq", KindSeq, false},
		{"instant", KindInstant, false},
		{"ring", "", true},
		{"TOTEM", "", true},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseKind(%q): want error, got %q", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseKind(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	hub := NewInstantHub()
	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"zero selects totem", Options{}, ""},
		{"totem tuning on totem", Options{Kind: KindTotem, Totem: TotemTuning{JoinTimeout: time.Millisecond}}, ""},
		{"seq tuning on seq", Options{Kind: KindSeq, Seq: SeqTuning{LeaderTimeout: time.Millisecond}}, ""},
		{"instant with hub", Options{Kind: KindInstant, Instant: InstantTuning{Hub: hub}}, ""},
		{"unknown kind", Options{Kind: "ring"}, "unknown orderer"},
		{"totem tuning on seq", Options{Kind: KindSeq, Totem: TotemTuning{JoinTimeout: time.Millisecond}}, "Totem tuning set but Kind"},
		{"seq tuning on totem", Options{Kind: KindTotem, Seq: SeqTuning{LeaderTimeout: time.Millisecond}}, "Seq tuning set but Kind"},
		{"instant tuning on totem", Options{Kind: KindTotem, Instant: InstantTuning{Hub: hub}}, "Instant tuning set but Kind"},
		{"instant without hub", Options{Kind: KindInstant}, "Instant.Hub"},
		{"negative seq timeout", Options{Kind: KindSeq, Seq: SeqTuning{LeaderTimeout: -1}}, "Seq.LeaderTimeout must not be negative"},
		{"negative seq heartbeat", Options{Kind: KindSeq, Seq: SeqTuning{HeartbeatInterval: -time.Millisecond}}, "Seq.HeartbeatInterval must not be negative"},
		{"negative totem timeout", Options{Kind: KindTotem, Totem: TotemTuning{TokenLossTimeout: -1}}, "Totem.TokenLossTimeout must not be negative"},
		{"negative totem announce", Options{Totem: TotemTuning{AnnounceInterval: -time.Second}}, "Totem.AnnounceInterval must not be negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eff, err := c.opts.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				if eff.Kind == "" {
					t.Fatalf("Validate left Kind empty")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestEnvValidate(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, nil)
	deliver := func(Delivery) {}
	cases := []struct {
		name    string
		env     Env
		wantErr string
	}{
		{"missing runtime", Env{Transport: net.Endpoint(0), Deliver: deliver}, "Runtime"},
		{"missing deliver", Env{Runtime: k, Transport: net.Endpoint(0)}, "Deliver"},
		{"missing transport", Env{Runtime: k, Deliver: deliver}, "Transport"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.env, Options{})
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("New = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestViewIDLess(t *testing.T) {
	a := ViewID{Epoch: 1, Rep: 2}
	b := ViewID{Epoch: 1, Rep: 3}
	c := ViewID{Epoch: 2, Rep: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatalf("ViewID ordering broken: %v %v %v", a, b, c)
	}
	if b.Less(a) || c.Less(b) || a.Less(a) {
		t.Fatalf("ViewID ordering not strict")
	}
	if a.String() == "" {
		t.Fatalf("ViewID.String empty")
	}
	_ = []transport.NodeID{a.Rep} // keep the transport import honest
}
